package repro.baselines

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.{CoreTree, IterStat, Jobs, PartitionTask, RowBlocks, TuckerKernels, TuckerModel}
import repro.core.RowBlocks.RowBlock
import repro.core.TuckerKernels.{FactorData, ModelData}
import repro.linalg.DenseMatrix
import repro.tensor.{CoreEntry, CoreTensor, DenseTensor, SparseTensor}

import scala.collection.mutable

/** Shared machinery for the sparse zero-filled HOOI competitors
  * ([[SHotScan]], [[TuckerCsf]]): both run the same [[HooiCommon.sweep]] over
  * P-Tucker's row blocks ([[RowBlocks]]) and differ only in how they
  * compute one row's TTMc
  * `y_{i_n} = Σ_{α ∈ Ω^(n)_{i_n}} x_α · (⊗_{k≠n} a^(k)_{i_k,:})` from the
  * row's run of entries ([[RunTtmc]]). The sweep needs the `J_n` leading
  * left singular vectors of `Y_(n)`, whose rows are the `y_i`, and stores
  * `Y_(n)` nowhere.
  *
  * The factorization path is the scan-friendly Gram route, in two jobs per
  * mode, neither of which shuffles. The Gram job sums `M = Y_(n)ᵀY_(n)`
  * (`L×L`, `L = ∏_{k≠n} J_k`, small) over the runs, and the driver takes
  * the Jacobi eigendecomposition of `M`. The projection job scans again,
  * as S-HOT_scan does: it recomputes each run's `y_i` and returns
  * `u_i = y_i V_r Σ_r^{-1}`. A row split over several blocks ships each
  * part's partial `y_i` from the Gram job instead; the driver sums the
  * parts in partition order, adds `y_i y_iᵀ` to `M`, and projects the sum
  * itself. Only `M`, the split rows' `y_i` and the `I_n×J_n` factor reach
  * the driver.
  */
object HooiCommon {

  /** The method name in a HOOI fit's job tags ([[Jobs.tag]]). */
  private val Method = "hooi"

  /** A method's TTMc over one row's run: adds
    * `Σ_α x_α · ⊗_{k≠n} a^(k)_{i_k,:}` over the entries `start until end`
    * of the mode-`n` block `b`, which all lie in one row, into `y` (length
    * `∏_{k≠n} J_k`, the first non-target mode fastest). The run is sorted
    * by the other indices in ascending mode order.
    */
  private[baselines] trait RunTtmc extends Serializable {
    def apply(b: RowBlock, start: Int, end: Int, n: Int, f: FactorData, y: Array[Double]): Unit
  }

  /** Algorithm 1 with zeros for missing entries: QR-initialised random
    * factors, `maxIters` sweeps that each update every mode from the rows
    * `ttmc` builds, then the core by one more scan. The input is read in
    * one job, into row blocks, and they are released, with every
    * broadcast, even when the fit throws. A fit runs `2 + 2N·maxIters`
    * jobs, tagged `hooi/i<k>/m<n>/<phase>`, and none of them shuffles.
    */
  private[baselines] def sweep(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int], maxIters: Int,
                               partitions: Int, seed: Long)(ttmc: RunTtmc): TuckerModel = {
    val order = tensor.order
    require(ranks.length == order, "ranks must have one entry per mode")
    val sc = spark.sparkContext
    val T = if (partitions > 0) partitions else sc.defaultParallelism
    val blocks = RowBlocks.open(tensor, T, Method)
    try {
      val factors = Array.tabulate(order)(n =>
        DenseMatrix.qr(DenseMatrix.rand(tensor.dims(n), ranks(n), seed + n))._1)
      var history = Vector.empty[IterStat]
      var it = 0
      while (it < maxIters) {
        val t0 = System.nanoTime()
        var n = 0
        while (n < order) {
          factors(n) = updateMode(blocks.rdd, it + 1, n, factors, ranks, ttmc)
          n += 1
        }
        history :+= IterStat(it + 1, (System.nanoTime() - t0) / 1000000L,
          Double.NaN, Double.NaN, ranks.product)
        it += 1
      }
      val core = coreOf(blocks.rdd, maxIters, factors, ranks)
      TuckerModel(tensor.dims, ranks, factors, core, history)
    } finally blocks.close()
  }

  /** Mode `n`'s updated (orthonormal) factor, from the Gram and the
    * projection job of iteration `iter` (see [[HooiCommon]]).
    */
  private def updateMode(blocks: RDD[Array[RowBlock]], iter: Int, n: Int, factors: Array[DenseMatrix],
                         ranks: Array[Int], ttmc: RunTtmc): DenseMatrix = {
    val iN = factors(n).rows
    val rank = ranks(n)
    val kronLen = ranks.indices.filter(_ != n).map(ranks).product
    require(rank <= math.min(iN, kronLen), s"rank $rank > min(I=$iN, L=$kronLen)")
    val bF = blocks.sparkContext.broadcast(TuckerKernels.factorData(factors))
    try {
      val m = new Array[Double](kronLen * kronLen)
      val split = mutable.LinkedHashMap.empty[Int, Array[Double]]
      Jobs.run(blocks, Jobs.tag(Method, iter, n, "gram"), new Scan(n, kronLen, bF, ttmc, null)).foreach { s =>
        if (s.m != null) addInto(m, s.m, 0)
        s.rows.indices.foreach { q =>
          addInto(split.getOrElseUpdate(s.rows(q), new Array[Double](kronLen)), s.data, q * kronLen)
        }
      }
      split.valuesIterator.foreach(addGram(m, _))
      val (vals, vecs) = DenseMatrix.symEigen(new DenseMatrix(kronLen, kronLen, m))
      // V_r·Σ_r⁻¹, with a zero column for σ ≤ 1e-10
      val p = DenseMatrix.zeros(kronLen, rank)
      for (j <- 0 until rank) {
        val sigma = math.sqrt(math.max(vals(j), 0.0))
        if (sigma > 1e-10) for (k <- 0 until kronLen) p(k, j) = vecs(k, j) / sigma
      }
      val u = DenseMatrix.zeros(iN, rank)
      Jobs.run(blocks, Jobs.tag(Method, iter, n, "project"), new Scan(n, kronLen, bF, ttmc, p)).foreach { s =>
        s.rows.indices.foreach(r => System.arraycopy(s.data, r * rank, u.data, s.rows(r) * rank, rank))
      }
      split.foreach { case (i, y) => u.setRow(i, project(y, p)) }
      DenseMatrix.qr(u)._1 // re-orthonormalize (repairs zero-σ columns)
    } finally bF.destroy()
  }

  /** `u = y·p`. */
  private def project(y: Array[Double], p: DenseMatrix): Array[Double] = (new DenseMatrix(1, y.length, y) * p).data

  /** A block's share of a [[Scan]]. */
  private final case class ScanPart(m: Array[Double], rows: Array[Int], data: Array[Double])

  /** One pass over a partition's mode-`n` block, computing each run's `y_i`
    * with `ttmc`. In the Gram job (`p` null) it returns `m = Σ y_i y_iᵀ` over
    * the block's whole rows (null for an empty block), and the rows and
    * partial `y_i` of its parts of split rows, `L` doubles apiece. In the
    * projection job it returns the whole rows and their `u_i = y_i·p`, and
    * skips the parts, whose sum the driver projects.
    */
  private final class Scan(n: Int, kronLen: Int, bF: Broadcast[FactorData], ttmc: RunTtmc, p: DenseMatrix)
      extends PartitionTask[Array[RowBlock], ScanPart] {
    def apply(ctx: TaskContext, it: Iterator[Array[RowBlock]]): ScanPart = {
      val b = it.next()(n)
      val m = if (p == null && b.nnz > 0) new Array[Double](kronLen * kronLen) else null
      val rows = new mutable.ArrayBuilder.ofInt
      val data = new mutable.ArrayBuilder.ofDouble
      val y = new Array[Double](kronLen)
      var start = 0
      while (start < b.nnz) {
        val end = b.runEnd(n, start)
        val i = b.idx(start * b.order + n)
        val part = b.isPart(i)
        if (p == null || !part) {
          java.util.Arrays.fill(y, 0.0)
          ttmc(b, start, end, n, bF.value, y)
          if (p != null) { rows += i; data ++= project(y, p) }
          else if (part) { rows += i; data ++= y }
          else addGram(m, y)
        }
        start = end
      }
      ScanPart(m, rows.result(), data.result())
    }
  }

  /** `G(β) = Σ_{α∈Ω} x_α ∏_k a^(k)_{i_k β_k}`, the final core, from one job
    * over mode 0's blocks (zero-filled semantics: missing entries contribute
    * nothing), summed in partition order. The products come from the tree
    * of the full `ranks` grid with unit leaves ([[CoreTree.products]]):
    * `nodes(G)` multiplies per entry.
    */
  private[baselines] def coreOf(blocks: RDD[Array[RowBlock]], iter: Int, factors: Array[DenseMatrix],
                                ranks: Array[Int]): CoreTensor = {
    val grid = new CoreTensor(ranks.clone(), DenseTensor.indices(ranks).map(CoreEntry(_, 1.0)).toArray)
    val bM = blocks.sparkContext.broadcast(ModelData(TuckerKernels.factorData(factors), CoreTree(grid)))
    val g =
      try Jobs.run(blocks, Jobs.tag(Method, iter, 0, "core"), new CoreSums(bM))
        .foldLeft(new Array[Double](grid.nnz))((acc, part) => addInto(acc, part, 0))
      finally bM.destroy()
    grid.withValues(g)
  }

  /** A mode-0 block's share of [[coreOf]]: `acc += x·p` with each entry's
    * products `p` over the grid's tree.
    */
  private final class CoreSums(bM: Broadcast[ModelData]) extends PartitionTask[Array[RowBlock], Array[Double]] {
    def apply(ctx: TaskContext, it: Iterator[Array[RowBlock]]): Array[Double] = {
      val b = it.next()(0)
      val ModelData(f, tree, _) = bM.value
      val acc = new Array[Double](tree.nnz)
      val p = new Array[Double](tree.nnz)
      val s = tree.scratch()
      val idx = new Array[Int](tree.order)
      var e = 0
      while (e < b.nnz) {
        b.indexInto(e, idx)
        tree.products(idx, f, s, p)
        val x = b.values(e)
        var c = 0
        while (c < p.length) { acc(c) += x * p(c); c += 1 }
        e += 1
      }
      acc
    }
  }

  /** `x += y(off until off + x.length)`, elementwise; returns `x`. */
  private def addInto(x: Array[Double], y: Array[Double], off: Int): Array[Double] = {
    var i = 0; while (i < x.length) { x(i) += y(off + i); i += 1 }; x
  }

  /** `m += y yᵀ` for the row-major `L×L` matrix `m` (`L = y.length`). */
  private def addGram(m: Array[Double], y: Array[Double]): Unit = {
    val kronLen = y.length
    var a = 0
    while (a < kronLen) {
      val ya = y(a)
      if (ya != 0.0) {
        var b = 0
        while (b < kronLen) { m(a * kronLen + b) += ya * y(b); b += 1 }
      }
      a += 1
    }
  }

  /** `x · (⊗_{k≠n} a^(k)_{i_k,:})` for the entry with indices
    * `idx(off until off + N)` and value `x`, accumulated into `acc` (length
    * `∏_{k≠n} J_k`, the first non-target mode fastest) and built by
    * repeated outer products: the naive per-entry TTMc kernel S-HOT scans
    * with.
    */
  def accumulateKron(acc: Array[Double], idx: Array[Int], off: Int, x: Double, n: Int, f: FactorData): Unit = {
    var cur = Array(x)
    var k = 0
    while (k < f.length) {
      if (k != n) {
        val cols = f(k)._1
        val data = f(k)._2
        val rowOff = idx(off + k) * cols
        val next = new Array[Double](cur.length * cols)
        var j = 0
        while (j < cols) {
          val w = data(rowOff + j)
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
}
