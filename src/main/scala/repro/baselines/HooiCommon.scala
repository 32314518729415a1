package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.TuckerKernels
import repro.linalg.DenseMatrix
import repro.tensor.{CoreEntry, CoreTensor, DenseTensor, SparseTensor, TensorEntry}

/** Shared machinery for the sparse zero-filled HOOI competitors
  * ([[SHotScan]], [[TuckerCsf]]): both produce the TTMc rows
  * `y_{i_n} = Σ_{α ∈ Ω^(n)_{i_n}} x_α · (⊗_{k≠n} a^(k)_{i_k,:})`
  * (each by its own strategy) and then need the `J_n` leading left singular
  * vectors of the implicit `Y_(n)` without materializing it on the driver.
  *
  * The factorization path is the scan-friendly Gram route: `M = Y_(n)ᵀY_(n)`
  * (`L×L`, `L = ∏_{k≠n} J_k` — small) accumulated by `treeAggregate`, a
  * Jacobi eigendecomposition of `M` on the driver, then per-row
  * `u_i = y_i V_r Σ_r^{-1}` computed where the rows live. Only `M` and the
  * `I_n×J_n` factor ever reach the driver.
  */
object HooiCommon {

  /** Kronecker index layout for `⊗_{k≠n}`: position of a core multi-index
    * restricted to modes ≠ n, with mode order ascending and the *first*
    * non-n mode fastest-varying (matches `DenseTensor`'s column-major walk).
    */
  def kronOffset(idx: Array[Int], ranks: Array[Int], n: Int): Int = {
    var off = 0; var stride = 1; var k = 0
    while (k < ranks.length) {
      if (k != n) { off += idx(k) * stride; stride *= ranks(k) }
      k += 1
    }
    off
  }

  /** `x · (⊗_{k≠n} a^(k)_{i_k,:})` accumulated into `acc` (length
    * `∏_{k≠n} J_k`), built by repeated outer products — the naive per-entry
    * TTMc kernel S-HOT scans with.
    */
  def accumulateKron(acc: Array[Double], e: TensorEntry, n: Int,
                     factorRows: Array[Array[Double]]): Unit = {
    // factorRows(k) = a^(k)_{i_k,:} for k != n (null at k == n)
    var cur = Array(e.value)
    var k = 0
    while (k < factorRows.length) {
      if (k != n) {
        val row = factorRows(k)
        val next = new Array[Double](cur.length * row.length)
        var j = 0
        while (j < row.length) {
          val w = row(j)
          if (w != 0.0) {
            var i = 0
            while (i < cur.length) { next(j * cur.length + i) += w * cur(i); i += 1 }
          }
          j += 1
        }
        cur = next
      }
      k += 1
    }
    var i = 0
    while (i < acc.length) { acc(i) += cur(i); i += 1 }
  }

  /** From distributed TTMc rows to the updated (orthonormal) factor matrix. */
  def factorFromRows(spark: SparkSession, rows: RDD[(Int, Array[Double])],
                     iN: Int, kronLen: Int, rank: Int): DenseMatrix = {
    require(rank <= math.min(iN, kronLen),
      s"rank $rank > min(I=$iN, L=$kronLen)")
    // M = Yᵀ Y, accumulated where the rows live.
    val m = rows.treeAggregate(new Array[Double](kronLen * kronLen))(
      seqOp = { case (acc, (_, y)) =>
        var a = 0
        while (a < kronLen) {
          val ya = y(a)
          if (ya != 0.0) {
            var b = 0
            while (b < kronLen) { acc(a * kronLen + b) += ya * y(b); b += 1 }
          }
          a += 1
        }
        acc
      },
      combOp = { (x, y) =>
        var i = 0; while (i < x.length) { x(i) += y(i); i += 1 }; x
      })
    val (vals, vecs) = DenseMatrix.symEigen(new DenseMatrix(kronLen, kronLen, m))
    val vr = Array.tabulate(rank) { j =>
      val sigma = math.sqrt(math.max(vals(j), 0.0))
      val col = new Array[Double](kronLen)
      var i = 0
      while (i < kronLen) { col(i) = vecs(i, j); i += 1 }
      (col, if (sigma > 1e-10) 1.0 / sigma else 0.0)
    }
    val bVr = spark.sparkContext.broadcast(vr)
    val factorRows = rows.map { case (i, y) =>
      val out = new Array[Double](rank)
      val v = bVr.value
      var j = 0
      while (j < rank) {
        val (col, invSigma) = v(j)
        var s = 0.0
        var k = 0
        while (k < kronLen) { s += y(k) * col(k); k += 1 }
        out(j) = s * invSigma
        j += 1
      }
      (i, out)
    }.collect()
    bVr.destroy()
    val u = DenseMatrix.zeros(iN, rank)
    factorRows.foreach { case (i, r) => u.setRow(i, r) }
    DenseMatrix.qr(u)._1 // re-orthonormalize (repairs zero-σ columns)
  }

  /** `G(β) = Σ_{α∈Ω} x_α ∏_k a^(k)_{i_k β_k}` — the final core, computed by
    * one scan (zero-filled semantics: missing entries contribute nothing).
    */
  def coreFromEntries(spark: SparkSession, entries: RDD[TensorEntry],
                      factors: Array[DenseMatrix], ranks: Array[Int]): CoreTensor = {
    val cells = DenseTensor.indices(ranks).toArray
    val bF = spark.sparkContext.broadcast(TuckerKernels.factorData(factors))
    val bCells = spark.sparkContext.broadcast(cells)
    val g = entries.treeAggregate(new Array[Double](cells.length))(
      seqOp = { (acc, e) =>
        // walk all core cells; products built incrementally per mode would
        // be faster, but |G| is small for every bench that runs this path.
        val cs = bCells.value
        val f = bF.value
        var cell = 0
        while (cell < acc.length) {
          acc(cell) += TuckerKernels.cellProduct(e.idx, cs(cell), e.value, TuckerKernels.NoSkip, f)
          cell += 1
        }
        acc
      },
      combOp = { (x, y) =>
        var i = 0; while (i < x.length) { x(i) += y(i); i += 1 }; x
      })
    bF.destroy(); bCells.destroy()
    new CoreTensor(ranks.clone(), cells.zip(g).map { case (idx, v) => CoreEntry(idx, v) })
  }

  /** Frobenius norm of entries via RDD (zero-filled semantics). */
  def norm(entries: RDD[TensorEntry]): Double =
    math.sqrt(entries.map(e => e.value * e.value).treeReduce(_ + _))
}
