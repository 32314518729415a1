package repro.baselines

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.{IterStat, TuckerKernels, TuckerModel}
import repro.core.TuckerKernels.FactorData
import repro.linalg.DenseMatrix
import repro.tensor.{CoreEntry, CoreTensor, DenseTensor, SparseTensor, TensorEntry}

/** Shared machinery for the sparse zero-filled HOOI competitors
  * ([[SHotScan]], [[TuckerCsf]]): both run the same [[HooiCommon.sweep]] and
  * differ only in how they produce the TTMc rows
  * `y_{i_n} = Σ_{α ∈ Ω^(n)_{i_n}} x_α · (⊗_{k≠n} a^(k)_{i_k,:})`; the sweep
  * then needs the `J_n` leading left singular vectors of the implicit
  * `Y_(n)` without materializing it on the driver.
  *
  * The factorization path is the scan-friendly Gram route: `M = Y_(n)ᵀY_(n)`
  * (`L×L`, `L = ∏_{k≠n} J_k` — small) accumulated by `treeAggregate`, a
  * Jacobi eigendecomposition of `M` on the driver, then per-row
  * `u_i = y_i V_r Σ_r^{-1}` computed where the rows live. Only `M` and the
  * `I_n×J_n` factor ever reach the driver.
  */
object HooiCommon {

  /** Algorithm 1 with zeros for missing entries: QR-initialised random
    * factors, `maxIters` sweeps that each update every mode from the rows
    * `ttmcRows` builds, then the core by one scan. The entries are persisted
    * once for the whole fit and released, with the live broadcast, even when
    * the fit throws.
    *
    * @param ttmcRows the method's TTMc row builder: `(entries, mode, kronLen,
    *                 factors)` → `(i_n, y)` pairs whose sums per `i_n` are
    *                 the rows of `Y_(n)` (length `kronLen = ∏_{k≠n} J_k`);
    *                 a row may arrive as several partial sums.
    */
  def sweep(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int], maxIters: Int,
            partitions: Int, seed: Long)
           (ttmcRows: (RDD[TensorEntry], Int, Int, Broadcast[FactorData]) => RDD[(Int, Array[Double])])
      : TuckerModel = {
    val order = tensor.order
    require(ranks.length == order)
    val sc = spark.sparkContext
    val T = if (partitions > 0) partitions else sc.defaultParallelism
    val entries = tensor.entriesRdd(T).persist(StorageLevel.MEMORY_AND_DISK)
    var bF: Broadcast[FactorData] = null
    try {
      entries.count()
      val factors = Array.tabulate(order)(n =>
        DenseMatrix.qr(DenseMatrix.rand(tensor.dims(n), ranks(n), seed + n))._1)
      var history = Vector.empty[IterStat]
      var it = 0
      while (it < maxIters) {
        val t0 = System.nanoTime()
        var n = 0
        while (n < order) {
          val kronLen = ranks.indices.filter(_ != n).map(ranks).product
          bF = sc.broadcast(TuckerKernels.factorData(factors))
          val rows = ttmcRows(entries, n, kronLen, bF).reduceByKey(addInto)
          factors(n) = factorFromRows(spark, rows, tensor.dims(n), kronLen, ranks(n))
          bF.destroy(); bF = null
          n += 1
        }
        history :+= IterStat(it + 1, (System.nanoTime() - t0) / 1000000L,
          Double.NaN, Double.NaN, ranks.product)
        it += 1
      }
      val core = coreFromEntries(spark, entries, factors, ranks)
      TuckerModel(tensor.dims, ranks, factors, core, history)
    } finally {
      entries.unpersist(blocking = false)
      if (bF != null) bF.destroy()
    }
  }

  /** `x += y`, elementwise; returns `x`. */
  private def addInto(x: Array[Double], y: Array[Double]): Array[Double] = {
    var i = 0; while (i < x.length) { x(i) += y(i); i += 1 }; x
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
      combOp = addInto)
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
      combOp = addInto)
    bF.destroy(); bCells.destroy()
    new CoreTensor(ranks.clone(), cells.zip(g).map { case (idx, v) => CoreEntry(idx, v) })
  }
}
