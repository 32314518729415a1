package repro.core

import org.apache.spark.{SparkException, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, SparseTensor, TensorEntry}

import scala.collection.mutable
import scala.reflect.ClassTag

/** Which Algorithm-2/3 variant to run (Section III-C). */
sealed trait PTuckerVariant
object PTuckerVariant {
  /** Memory-optimized default: δ recomputed per entry from the core's tree. */
  case object Default extends PTuckerVariant
  /** Time-optimized: per-(α,β) products memoized in the Pres table. */
  case object Cache extends PTuckerVariant
  /** Time-optimized: "noisy" core cells truncated by R(β) each iteration. */
  case object Approx extends PTuckerVariant
}

/** @param ranks          core dimensionality `J_1…J_N`
  * @param lambda         L2 regularization λ (paper default 0.01)
  * @param maxIters       max outer iterations (paper default 20)
  * @param tol            stop when relative error change < tol
  * @param variant        Default / Cache / Approx
  * @param truncationRate Approx only: fraction of surviving core cells
  *                       removed per iteration (paper default 0.2)
  * @param partitions     tasks per mode update ≙ the paper's thread count T
  *                       (0 → Spark default parallelism)
  * @param orthogonalize  run the final QR + core update (Alg. 2 lines 8-11)
  */
final case class PTuckerConfig(ranks: Array[Int],
                               lambda: Double = 0.01,
                               maxIters: Int = 20,
                               tol: Double = 1e-4,
                               variant: PTuckerVariant = PTuckerVariant.Default,
                               truncationRate: Double = 0.2,
                               partitions: Int = 0,
                               orthogonalize: Boolean = true,
                               seed: Long = 17)

/** P-Tucker: fully parallel gradient-based ALS Tucker factorization for
  * sparse tensors (Algorithms 2-4 of the paper), on Spark.
  *
  * Parallelization mapping (DESIGN.md §2): the paper updates the rows of
  * `A^(n)` across OpenMP threads. Default and Approx lay the entries out once
  * per fit in row blocks ([[RowBlocks]], which the HOOI competitors sweep
  * too), T partitions each holding one block per mode: T equal slices of the
  * mode's entries ordered by row, a row crossing a slice boundary split over
  * consecutive blocks. A mode update is then one stage of T tasks: each
  * assembles its rows' normal equations `(B_{i_n}, c_{i_n})` of
  * Eq. (11)-(12), solves them (Eq. 10) and returns the rows, with no
  * shuffle. Cache's Pres table is aligned with the entries
  * instead, so Cache assembles the same equations by `combineByKey` on `i_n`.
  * The driver only ever holds the factor matrices themselves (`I_n×J_n`,
  * small by assumption). Every job goes through [[Jobs.run]] and is tagged
  * with its iteration, mode and phase ([[Jobs.tag]]).
  */
object PTucker {

  import CoreTree.TopSplit
  import RowBlocks.{CheckedEntries, RowBlock, checkSchema, inputChecked, materialize, release}
  import TuckerKernels.{CoreCells, FactorData, ModelData, coreCells, factorData}

  /** The method name in this fit's job tags ([[Jobs.tag]]). */
  private val Method = "ptucker"

  private def modelData(factors: Array[DenseMatrix], core: CoreTensor, withSplit: Boolean = false): ModelData =
    ModelData(factorData(factors), CoreTree(core), if (withSplit) Some(CoreTree.topSplit(core)) else None)

  /** What a mode update yields besides its rows (see [[Layout.updateMode]]). */
  private[core] final case class ModeStats(sse: Double, rBeta: Option[Array[Double]])

  def fit(spark: SparkSession, tensor: SparseTensor, config: PTuckerConfig): TuckerModel = {
    val order = tensor.order
    require(config.ranks.length == order, "ranks must have one entry per mode")
    (0 until order).foreach { n =>
      require(tensor.dims(n) >= config.ranks(n),
        s"mode $n: dim ${tensor.dims(n)} < rank ${config.ranks(n)}")
    }
    require(config.lambda >= 0, s"lambda ${config.lambda} < 0")
    require(config.truncationRate >= 0 && config.truncationRate < 1,
      s"truncationRate ${config.truncationRate} outside [0, 1)")
    require(config.variant != PTuckerVariant.Approx || order >= 2, "P-Tucker-Approx needs an order of at least 2")
    val T = if (config.partitions > 0) config.partitions else spark.sparkContext.defaultParallelism
    // Default and Approx update over row blocks, Cache over its Pres table.
    val layout: Layout =
      if (config.variant == PTuckerVariant.Cache) new PresLayout(spark, tensor, T, config)
      else new BlockLayout(spark, tensor, T, config)
    try {
      // Line 1 of Algorithm 2: Uniform(0,1) init of factors and core.
      val factors = Array.tabulate(order)(n =>
        DenseMatrix.rand(tensor.dims(n), config.ranks(n), config.seed + n))
      var core = CoreTensor.rand(config.ranks, config.seed + 100)
      val normX = layout.open(factors, core)

      var history = Vector.empty[IterStat]
      var prevError = Double.MaxValue
      var converged = false
      var iter = 0
      while (iter < config.maxIters && !converged) {
        val t0 = System.nanoTime()
        // Algorithm 4: Approx drops this many "noisy" core cells after the
        // iteration's mode updates.
        val drop =
          if (config.variant == PTuckerVariant.Approx) math.min((config.truncationRate * core.nnz).toInt, core.nnz - 1)
          else 0

        // Algorithm 2 lines 3-4: update each A^(n); the last update also
        // returns the reconstruction error (Eq. 6) with the final factors,
        // and R(β) (Eq. 14) when cells are to be dropped.
        var stats: ModeStats = null
        var n = 0
        while (n < order) {
          stats = layout.updateMode(iter + 1, n, factors, core, rBeta = drop > 0)
          n += 1
        }
        val error = math.sqrt(stats.sse)
        if (!error.isFinite)
          throw new IllegalStateException(
            s"P-Tucker ${config.variant}: reconstruction error is $error at iteration ${iter + 1}")

        // Algorithm 2 lines 5-6 (+ Algorithm 4): truncate "noisy" core cells.
        stats.rBeta.foreach(r => core = core.truncate(r, drop))

        val millis = (System.nanoTime() - t0) / 1000000L
        history :+= IterStat(iter + 1, millis, error, 1.0 - error / normX, core.nnz)
        converged = prevError != Double.MaxValue &&
          math.abs(prevError - error) <= config.tol * math.max(prevError, 1e-12)
        prevError = error
        iter += 1
      }

      // Algorithm 2 lines 8-11: QR-orthogonalize factors, fold R into the core.
      if (config.orthogonalize) {
        var n = 0
        while (n < order) {
          val (q, r) = DenseMatrix.qr(factors(n))
          factors(n) = q
          core = core.modeProduct(n, r)
          n += 1
        }
      }

      TuckerModel(tensor.dims, config.ranks, factors, core, history)
    } finally layout.close()
  }

  /** How a fit stores the entries and updates one mode over them. */
  private[core] sealed trait Layout {
    /** Reads the input, checking every entry ([[RowBlocks]]), and returns
      * ‖X‖ over the observed entries. `factors` and `core` are the initial
      * model, from which Cache builds its Pres table.
      */
    def open(factors: Array[DenseMatrix], core: CoreTensor): Double

    /** Eq. (10)-(13) for mode `n` in iteration `iter` (from 1): replaces
      * `factors(n)` by the solved rows. Rows with Ω^(n)_{i_n} = ∅ have B = 0,
      * c = 0, so Eq. (10) gives the zero row (pure regularization). The
      * last mode returns the squared reconstruction error (Eq. 6) with the
      * updated factors and, with `rBeta`, R(β) (Eq. 14) for each of
      * `core`'s cells; the other modes return `ModeStats(0, None)`. A failed
      * row solve throws an IllegalStateException ([[rowSolve]]).
      */
    def updateMode(iter: Int, n: Int, factors: Array[DenseMatrix], core: CoreTensor, rBeta: Boolean): ModeStats

    /** Releases everything the layout persisted or broadcast. */
    def close(): Unit
  }

  /** Default and Approx: the entries in row blocks ([[RowBlocks]]). A mode
    * update is one stage of T tasks, each over its partition's block of the
    * mode, with no shuffle ([[solveBlocks]]).
    */
  private[core] final class BlockLayout(spark: SparkSession, tensor: SparseTensor, T: Int,
                                        config: PTuckerConfig) extends Layout {
    private val sc = spark.sparkContext
    private var rowBlocks: RowBlocks = _

    /** The blocks' T partitions ([[RowBlocks.rdd]]), after [[open]]. */
    def blocks: RDD[Array[RowBlock]] = rowBlocks.rdd

    def open(factors: Array[DenseMatrix], core: CoreTensor): Double = {
      rowBlocks = RowBlocks.open(tensor, T, Method)
      rowBlocks.norm
    }

    def updateMode(iter: Int, n: Int, factors: Array[DenseMatrix], core: CoreTensor, rBeta: Boolean): ModeStats = {
      val last = n == tensor.order - 1
      val model = modelData(factors, core, withSplit = last && rBeta)
      val bM = sc.broadcast(model)
      try {
        val updated = DenseMatrix.zeros(tensor.dims(n), config.ranks(n))
        val stats = rowSolve(config.variant, iter, n) {
          solveBlocks(blocks, Jobs.tag(Method, iter, n, "mode_update"), n, config.ranks(n), config.lambda, last,
            bM, model.split, core, factors(n), updated)
        }
        factors(n) = updated
        stats
      } finally bM.destroy()
    }

    def close(): Unit = if (rowBlocks != null) rowBlocks.close()
  }

  /** Cache: the entries and their Pres rows (Algorithm 3). Pres is aligned
    * with the entries, so a mode update sums each row's `(B | c)` by
    * `combineByKey` on `i_n` ([[solveFromPres]]), and Eq. (6) is a separate
    * pass over the entries ([[TuckerKernels.squaredErrors]]). The core does
    * not change until the fit's final QR fold, so its tree and cells are
    * broadcast once, in [[open]]; a mode update broadcasts only the updated
    * factors, which the next update reads as its old ones.
    */
  private final class PresLayout(spark: SparkSession, tensor: SparseTensor, T: Int,
                                 config: PTuckerConfig) extends Layout {
    private val sc = spark.sparkContext
    private var entries: RDD[TensorEntry] = _
    private var pres: RDD[(TensorEntry, Array[Double])] = _
    private var bTree: Broadcast[CoreTree] = _
    private var bCells: Broadcast[CoreCells] = _
    // The factors as they are now, which the next mode update starts from.
    private var bF: Broadcast[FactorData] = _
    // Destroyed by close(). Until then they are only unpersisted: the Pres
    // closures stay fields of the cached RDD even after checkpoint
    // truncation, and task serialization still writes the broadcast stub, so
    // destroying one would poison every later job over `pres`.
    private val pinned = mutable.ArrayBuffer.empty[Broadcast[_]]

    private def broadcast[A: ClassTag](value: A): Broadcast[A] = {
      val b = sc.broadcast(value)
      pinned += b
      b
    }

    def open(factors: Array[DenseMatrix], core: CoreTensor): Double = {
      checkSchema(tensor)
      entries = tensor.df.queryExecution.toRdd.mapPartitions(new CheckedEntries(tensor.dims)).repartition(T)
        .persist(StorageLevel.MEMORY_AND_DISK)
      // ‖X‖² is the squared error of the zero model, a core with no cells.
      val (nnz, sumSq) = inputChecked(TuckerKernels.squaredErrors(entries, Jobs.tag(Method, 0, 0, "open"), factors,
        new CoreTensor(config.ranks, Array.empty)))
      require(nnz > 0, "empty tensor")
      // Algorithm 3 lines 1-4: precompute the Pres cache table.
      bTree = broadcast(CoreTree(core))
      bCells = broadcast(coreCells(core))
      bF = broadcast(factorData(factors))
      // Locals, so that the closure captures the broadcasts, not this layout.
      val (bT, bF0) = (bTree, bF)
      pres = materialize(entries.mapPartitions { es =>
        val tree = bT.value
        val s = tree.scratch()
        es.map(e => (e, computePres(e.idx, bF0.value, tree, s)))
      }, Jobs.tag(Method, 0, 0, "materialize"))
      math.sqrt(sumSq)
    }

    def updateMode(iter: Int, n: Int, factors: Array[DenseMatrix], core: CoreTensor, rBeta: Boolean): ModeStats = {
      require(!rBeta, "P-Tucker-Cache computes no R(β)")
      val jn = config.ranks(n)
      val updated = DenseMatrix.zeros(tensor.dims(n), jn)
      val (bOld, bT, bC) = (bF, bTree, bCells)
      rowSolve(config.variant, iter, n) {
        solveFromPres(pres, Jobs.tag(Method, iter, n, "mode_update"), n, jn, config.lambda, bOld, bT, bC, updated)
      }
      factors(n) = updated
      // Algorithm 3 lines 16-19: patch Pres multiplicatively for mode n,
      // from the old factors to the updated ones.
      val bNew = broadcast(factorData(factors))
      val old = pres
      pres = materialize(old.map { case (e, p) =>
        (e, patchPres(e.idx, p, n, bOld.value(n), bC.value, bNew.value, bT.value))
      }, Jobs.tag(Method, iter, n, "materialize"))
      release(old)
      bOld.unpersist()
      bF = bNew
      val sse =
        if (n == tensor.order - 1)
          TuckerKernels.squaredErrors(entries, Jobs.tag(Method, iter, n, "error_pass"), factors, core)._2
        else 0.0
      ModeStats(sse, None)
    }

    def close(): Unit = {
      if (entries != null) entries.unpersist(blocking = false)
      if (pres != null) release(pres)
      pinned.foreach(_.destroy())
    }
  }

  /** Runs mode `n`'s row solve in iteration `iter`. A solve that fails, in
    * a task or on the driver, becomes an IllegalStateException that names
    * the variant, the iteration and the mode.
    */
  private def rowSolve[A](variant: PTuckerVariant, iter: Int, n: Int)(solve: => A): A =
    try solve
    catch {
      case e @ (_: SparkException | _: IllegalArgumentException) =>
        throw new IllegalStateException(s"P-Tucker $variant: row solve failed at iteration $iter, mode $n", e)
    }

  /** One block's share of a mode update (see [[solveBlock]]): the solved
    * rows (row-major) with the SSE over their entries, each part of a split
    * row, `partStride` doubles apiece, and, for R(β), the block's `Y` then
    * `Z` per cell ([[RBetaSums]]; empty without R(β)).
    */
  private[core] final case class BlockSolve(rows: Array[Int], data: Array[Double], sse: Double,
                                            partRows: Array[Int], parts: Array[Double], yz: Array[Double])

  /** A part's `(B | c)`, `s` and `g`, then with R(β) its `W₀`, `M` and `V`
    * (see [[solveBlock]]).
    */
  private def partStride(jn: Int, split: Option[TopSplit]): Int =
    jn * jn + 2 * jn + 1 + split.fold(0)(sp => (jn + 2) * sp.rest.nnz)

  /** Mode `n`'s update over its row blocks: one job described by
    * `description`, one task per partition, each over the partition's
    * mode-`n` block, no shuffle. Rows come back solved, except a split row,
    * whose parts' `(B | c)` the driver sums, in partition order, and solves.
    * Writes every row into `updated`. With `withSse`, the stats hold Eq.
    * (6)'s sum over the mode's entries with the new rows (`old` holds the
    * rows before the update): each block's SSE in partition order, then each
    * part's [[partSse]]. With `split` (the last mode only), they also hold
    * R(β) for each of `core`'s cells, summed in the same order.
    */
  private def solveBlocks(blocks: RDD[Array[RowBlock]], description: String, n: Int, jn: Int, lambda: Double,
                          withSse: Boolean, bM: Broadcast[ModelData], split: Option[TopSplit], core: CoreTensor,
                          old: DenseMatrix, updated: DenseMatrix): ModeStats = {
    val solved = Jobs.run(blocks, description, new SolveBlocks(n, jn, lambda, withSse, bM)).flatten
    val stride = partStride(jn, split)
    val rb = split.map(new RBetaSums(_, jn))
    val splitRows = mutable.LinkedHashMap.empty[Int, Array[Double]]
    var sse = 0.0
    solved.foreach { s =>
      var r = 0
      while (r < s.rows.length) {
        System.arraycopy(s.data, r * jn, updated.data, s.rows(r) * jn, jn)
        r += 1
      }
      sse += s.sse
      rb.foreach(b => mergeAcc(b.yz, s.yz))
      s.partRows.indices.foreach { q =>
        mergeAcc(splitRows.getOrElseUpdate(s.partRows(q), new Array[Double](jn * jn + jn)),
          java.util.Arrays.copyOfRange(s.parts, q * stride, q * stride + jn * jn + jn))
      }
    }
    splitRows.foreach { case (i, acc) => updated.setRow(i, solveRow(acc, jn, lambda)) }
    if (withSse)
      solved.foreach { s =>
        s.partRows.indices.foreach { q =>
          val i = s.partRows(q)
          val d = Array.tabulate(jn)(j => updated(i, j) - old(i, j))
          sse += partSse(s.parts, q * stride, jn, d)
          rb.foreach(_.addPart(s.parts, q * stride + jn * jn + 2 * jn + 1, d, updated.data, i * jn))
        }
      }
    ModeStats(sse, rb.map(_.rBeta(core)))
  }

  /** [[solveBlock]] of a partition's mode-`n` block; `None` for an empty one. */
  private[core] final class SolveBlocks(n: Int, jn: Int, lambda: Double, withSse: Boolean,
                                        bM: Broadcast[ModelData])
      extends PartitionTask[Array[RowBlock], Option[BlockSolve]] {
    def apply(ctx: TaskContext, it: Iterator[Array[RowBlock]]): Option[BlockSolve] = {
      val b = it.next()(n)
      if (b.nnz > 0) Some(solveBlock(b, n, jn, lambda, withSse, bM.value)) else None
    }
  }

  /** Mode `n`'s update of one row block. For each row's run, `acc = (B | c)`
    * of Eq. (11)-(12) from each entry's δ (Eq. 13). δ is contracted for
    * [[CoreTree.Lanes]] consecutive entries at a time ([[CoreTree.deltas]]);
    * a chunk may cross runs. Each entry's δ is read out of its lane into one
    * reused array, `J` doubles, for [[accumulate]]. A whole row is solved
    * here (Eq. 10), and with `withSse` its `Σ (x_α − a_{i_n}·δ_α)²` with the
    * new row goes into the block's SSE: in the last mode, the block's share
    * of Eq. (6) with the final factors. For it, the run's δ's go into one
    * flat buffer, `J` doubles per entry. A run that is one part of a split
    * row returns `acc` instead, followed, with `withSse`, by `s = Σ r₀²` and
    * `g = Σ r₀·δ`, where `r₀ = x − a_old·δ` is the residual with the row's
    * old value (zeros without `withSse`). With the model's split (the last
    * mode of an Approx iteration that truncates), each run also feeds its
    * residuals into the block's [[RBetaSums]].
    */
  private def solveBlock(b: RowBlock, n: Int, jn: Int, lambda: Double, withSse: Boolean,
                         model: ModelData): BlockSolve = {
    val ModelData(f, tree, split) = model
    val L = CoreTree.Lanes
    val lanes = tree.laneScratch()
    val deltas = Array.fill(jn)(new Array[Double](L))
    val delta = new Array[Double](jn) // one entry's δ, read out of its lane
    var chunk = -L // the first entry whose δ is in `deltas`
    val rb = split.map(new RBetaSums(_, jn)).orNull
    val order = b.order
    val idx = new Array[Int](order)
    val acc = new Array[Double](jn * jn + jn)
    var runDeltas = new Array[Double](if (withSse) jn * L else 0)
    val rows = new mutable.ArrayBuilder.ofInt
    val data = new mutable.ArrayBuilder.ofDouble
    val partRows = new mutable.ArrayBuilder.ofInt
    val parts = new mutable.ArrayBuilder.ofDouble
    val oldRows = f(n)._2
    var sse = 0.0
    var start = 0
    while (start < b.nnz) {
      val i = b.idx(start * order + n)
      java.util.Arrays.fill(acc, 0.0)
      var e = start
      while (e < b.nnz && b.idx(e * order + n) == i) {
        if (e >= chunk + L) {
          chunk = e
          tree.deltas(b.idx, chunk, math.min(L, b.nnz - chunk), n, f, lanes, deltas)
        }
        val l = e - chunk
        var j = 0
        while (j < jn) { delta(j) = deltas(j)(l); j += 1 }
        accumulate(acc, delta, b.values(e))
        if (withSse) {
          val off = (e - start) * jn
          if (off + jn > runDeltas.length) runDeltas = java.util.Arrays.copyOf(runDeltas, 2 * runDeltas.length)
          System.arraycopy(delta, 0, runDeltas, off, jn)
        }
        e += 1
      }
      val runLength = if (withSse) e - start else 0
      if (rb != null) rb.startRun()
      if (b.isPart(i)) {
        mirror(acc, jn)
        val g = new Array[Double](jn)
        var s = 0.0
        var k = 0
        while (k < runLength) {
          val r0 = residual(b.values(start + k), oldRows, i * jn, runDeltas, k * jn, jn)
          s += r0 * r0
          var j = 0
          while (j < jn) { g(j) += r0 * runDeltas(k * jn + j); j += 1 }
          if (rb != null) { b.indexInto(start + k, idx); rb.add(idx, f, r0, runDeltas, k * jn) }
          k += 1
        }
        partRows += i
        parts ++= acc
        parts += s
        parts ++= g
        if (rb != null) rb.ship(parts)
      } else {
        val row = solveRow(acc, jn, lambda)
        var k = 0
        while (k < runLength) {
          val r = residual(b.values(start + k), row, 0, runDeltas, k * jn, jn)
          sse += r * r
          if (rb != null) { b.indexInto(start + k, idx); rb.add(idx, f, r, null, 0) }
          k += 1
        }
        if (rb != null) rb.addRow(row, 0)
        rows += i
        data ++= row
      }
      start = e
    }
    BlockSolve(rows.result(), data.result(), sse, partRows.result(), parts.result(),
      if (rb == null) Array.emptyDoubleArray else rb.yz)
  }

  /** `x − a·δ` for the row `a = rows(off until off + J)` and
    * `δ = deltas(dOff until dOff + J)`.
    */
  private def residual(x: Double, rows: Array[Double], off: Int, deltas: Array[Double], dOff: Int, jn: Int): Double = {
    var pred = 0.0
    var j = 0
    while (j < jn) { pred += rows(off + j) * deltas(dOff + j); j += 1 }
    x - pred
  }

  /** One part's share of Eq. (6) with its split row's change `d = a − a_old`,
    * from the part's B, `s` and `g` at `off` in `parts` (see [[solveBlock]]).
    * With `r = r₀ − d·δ`, it is `s − 2·d·g + dᵀ·B·d`: the residuals' sum
    * expanded around the old row, exact up to rounding, which grows only as
    * far as the new row fits the part better than the old one.
    */
  private def partSse(parts: Array[Double], off: Int, jn: Int, d: Array[Double]): Double = {
    val sOff = off + jn * jn + jn
    var sse = parts(sOff)
    var a = 0
    while (a < jn) {
      sse -= 2.0 * d(a) * parts(sOff + 1 + a)
      var b = 0
      while (b < jn) { sse += d(a) * parts(off + a * jn + b) * d(b); b += 1 }
      a += 1
    }
    sse
  }

  /** Eq. (14) from the last mode's runs, for the cells of `split`. In the
    * last mode every cell `β` is a pair `(β_{N−1}, ρ)` of a column of the
    * updated `A^(N−1)` and a rest tuple. With an entry's residual
    * `r_α = x_α − a_i·δ_α` under the new row `a_i` and
    * `u_α(ρ) = ∏_{k<N−1} a^(k)_{i_k ρ_k}`, dropping `β` changes the entry's
    * squared error by `−2·r_α·p_β − p_β²`, `p_β = G_β·a_i(β_{N−1})·u_α(ρ)`.
    * Summed over the entries, `R(β) = −2·G_β·Y_β − G_β²·Z_β` with
    * `Y_β = Σ_i a_i(β_{N−1})·W_i(ρ)`, `W_i = Σ_{α∈run i} r_α·u_α`, and
    * `Z_β = Σ_i a_i(β_{N−1})²·V_i(ρ)`, `V_i = Σ_{α∈run i} u_α∘u_α`. A run
    * sums `W` and `V` ([[add]]), and its row adds them into `Y` and `Z`
    * ([[addRow]]). A part of a split row does not know the new row, so it
    * ships `W₀ = Σ r₀·u` with the old row's residual, `M = Σ δ⊗u` and `V`
    * ([[ship]]), and the driver forms `W = W₀ − dᵀM` with `d = a − a_old`
    * ([[addPart]]), as [[partSse]] expands Eq. (6).
    */
  private final class RBetaSums(split: TopSplit, jn: Int) {
    private val rest = split.rest
    private val nRest = rest.nnz
    private val s = rest.scratch()
    private val u = new Array[Double](nRest)
    private val w = new Array[Double](nRest)
    private val v = new Array[Double](nRest)
    private val m = new Array[Double](jn * nRest)
    /** `Y`, then `Z`, one per cell. */
    val yz = new Array[Double](2 * split.nnz)

    def startRun(): Unit = {
      java.util.Arrays.fill(w, 0.0)
      java.util.Arrays.fill(v, 0.0)
      java.util.Arrays.fill(m, 0.0)
    }

    /** Adds an entry with indices `idx` and residual `r`; with its δ at
      * `dOff` in `deltas` (a part of a split row, else null), also `δ⊗u`
      * into `M`.
      */
    def add(idx: Array[Int], f: FactorData, r: Double, deltas: Array[Double], dOff: Int): Unit = {
      rest.products(idx, f, s, u)
      var p = 0
      while (p < nRest) { w(p) += r * u(p); v(p) += u(p) * u(p); p += 1 }
      if (deltas != null) {
        var j = 0
        while (j < jn) {
          val dj = deltas(dOff + j)
          val off = j * nRest
          p = 0
          while (p < nRest) { m(off + p) += dj * u(p); p += 1 }
          j += 1
        }
      }
    }

    /** Appends a part's `W₀`, `M` and `V` to `out`. */
    def ship(out: mutable.ArrayBuilder.ofDouble): Unit = { out ++= w; out ++= m; out ++= v }

    /** Adds a shipped part at `off` in `parts`, whose row changed by `d` to
      * `a(aOff until aOff + J)`.
      */
    def addPart(parts: Array[Double], off: Int, d: Array[Double], a: Array[Double], aOff: Int): Unit = {
      var p = 0
      while (p < nRest) {
        var x = parts(off + p)
        var j = 0
        while (j < jn) { x -= d(j) * parts(off + nRest + j * nRest + p); j += 1 }
        w(p) = x
        v(p) = parts(off + nRest + jn * nRest + p)
        p += 1
      }
      addRow(a, aOff)
    }

    /** Adds the run's `W` and `V` under its row `a(aOff until aOff + J)`. */
    def addRow(a: Array[Double], aOff: Int): Unit = {
      val cells = split.nnz
      var c = 0
      while (c < cells) {
        val ac = a(aOff + split.topOf(c))
        val rc = split.restOf(c)
        yz(c) += ac * w(rc)
        yz(cells + c) += ac * ac * v(rc)
        c += 1
      }
    }

    /** R(β) for each of `core`'s cells, from the summed `Y` and `Z`. */
    def rBeta(core: CoreTensor): Array[Double] = {
      val cells = split.nnz
      Array.tabulate(cells) { c =>
        val g = core.entries(c).value
        -2.0 * g * yz(c) - g * g * yz(cells + c)
      }
    }
  }

  /** Cache's mode-`n` update: δ read off each entry's Pres row (Alg. 3
    * line 12), `(B | c)` summed per row by `combineByKey` on `i_n`, solved
    * row by row in one job described by `description`; writes the rows
    * into `updated`. combineByKey, not aggregateByKey: the latter
    * deserializes its zero value once per (key, partition), which dominates
    * at high T.
    */
  private def solveFromPres(pres: RDD[(TensorEntry, Array[Double])], description: String, n: Int, jn: Int,
                            lambda: Double, bF: Broadcast[FactorData], bT: Broadcast[CoreTree],
                            bC: Broadcast[CoreCells], updated: DenseMatrix): Unit = {
    val seqOp = (acc: Array[Double], dx: (Array[Double], Double)) => {
      accumulate(acc, dx._1, dx._2); acc
    }
    val rows = pres
      .map { case (e, p) => (e.idx(n), (deltaFromPres(e.idx, p, n, jn, bF.value, bC.value, bT.value), e.value)) }
      .combineByKey(
        (dx: (Array[Double], Double)) => seqOp(new Array[Double](jn * jn + jn), dx),
        seqOp, mergeAcc _)
      .mapValues(solveRow(_, jn, lambda))
    Jobs.run(rows, description, new Jobs.Collect[(Int, Array[Double])])
      .foreach(_.foreach { case (i, row) => updated.setRow(i, row) })
  }

  /** Intermediate-data model of Table III, in doubles: what the algorithm
    * holds *beyond* X, G and the factor matrices. Default: per-task
    * δ, c (J) and B, (B+λI)^{-1} (J²) → `O(T·J²)`. Cache: the Pres table
    * → `O(|Ω|·J^N)`. Approx: the R(β) vector → `O(J^N)` (+ the default's
    * per-task data). Default's δ costs `O(nodes(G))` per entry and mode
    * ([[CoreTree]]), the paper's Cache time without Cache's memory; for it
    * a task holds the core's tree, a re-layout of G, and the δ kernel's
    * scratch ([[CoreTree.laneScratch]]): `Lanes` (128) doubles per tree
    * node above the leaves, plus `128·Σ J_k` for the gathered factor rows
    * and `128·J_n` for a chunk's δ's. That is independent of |Ω| and I, but
    * may exceed G itself (106 KB against 4 KB at N = 3, J = 8), and it is
    * not modelled. Not modelled either, because they depend on the data:
    * Default and Approx store the entries N times, once per mode's row
    * blocks, in columnar form (X itself, N copies), and a last-mode task
    * also holds one run's δ's for the Eq.-6 sum: one row's, or one part's
    * of a split row, so `⌈|Ω|/T⌉ · J` at most. Approx's last-mode
    * task also holds the run sums of R(β) ([[RBetaSums]]): `W` and `V`, one
    * double each per distinct rest tuple of the cells (at most
    * `min(|G|, J^{N-1})`), a split part's `M` (J times as many), and the
    * block's `Y` and `Z` (2|G|, which the driver sums into its R(β)
    * vector). The parts of split rows, at most T−1 rows per mode, add
    * `O(T·J²)` on the driver. While the blocks are built, each task holds
    * its rows' counts, turned into prefix sums: `Σ I_n` longs.
    */
  def intermediateDoubles(config: PTuckerConfig, T: Int, nnz: Long): Long = {
    val j = config.ranks.max.toLong
    val coreSize = config.ranks.map(_.toLong).product
    val perTask = T * (2 * j * j + 2 * j)
    config.variant match {
      case PTuckerVariant.Default => perTask
      case PTuckerVariant.Cache   => nnz * coreSize + perTask
      case PTuckerVariant.Approx  => coreSize + perTask
    }
  }

  // -------------------------------------------------------------------
  // kernels (run inside tasks; everything reachable is plain arrays)
  // -------------------------------------------------------------------

  /** Algorithm 3 line 4: `Pres[α][β] = G_β ∏_k a^{(k)}_{i_k j_k}`, aligned
    * with the core-cell enumeration order ([[CoreTree.products]]).
    */
  private[core] def computePres(idx: Array[Int], f: FactorData, tree: CoreTree,
                                s: Array[Array[Double]]): Array[Double] = {
    val out = new Array[Double](tree.nnz)
    tree.products(idx, f, s, out)
    out
  }

  /** Algorithm 3 line 12: δ from the cache, `Pres[α][β] / a^(n)_{i_n β_n}`
    * summed per column — O(1) per core cell, `cells` giving each cell's
    * mode-n column. If a cell's factor entry is at most 1e-12 in magnitude,
    * the division is unsafe (paper note), and the entry's δ is recomputed
    * from `tree` instead ([[CoreTree.delta]]).
    */
  private[core] def deltaFromPres(idx: Array[Int], p: Array[Double], n: Int, jn: Int,
                                  f: FactorData, cells: CoreCells, tree: CoreTree): Array[Double] = {
    val off = idx(n) * jn
    val dataN = f(n)._2
    val out = new Array[Double](jn)
    var b = 0
    while (b < cells.length) {
      val j = cells(b)._1(n)
      val a = dataN(off + j)
      if (math.abs(a) <= 1e-12) return tree.delta(idx, n, f)
      out(j) += p(b) / a
      b += 1
    }
    out
  }

  /** Algorithm 3 line 19: `Pres *= a_new/a_old` for mode `n`, where `oldF`
    * is the old `A^(n)` and `f` holds the updated factors. If a cell's old
    * factor entry is at most 1e-12 in magnitude, the division is unsafe,
    * and the entry's row is recomputed from `tree` instead ([[computePres]]).
    */
  private[core] def patchPres(idx: Array[Int], p: Array[Double], n: Int, oldF: (Int, Array[Double]),
                              cells: CoreCells, f: FactorData, tree: CoreTree): Array[Double] = {
    val off = idx(n) * oldF._1
    val dataN = f(n)._2
    val out = new Array[Double](p.length)
    var b = 0
    while (b < cells.length) {
      val j = cells(b)._1(n)
      val aOld = oldF._2(off + j)
      if (math.abs(aOld) <= 1e-12) return computePres(idx, f, tree, tree.scratch())
      out(b) = p(b) / aOld * dataN(off + j)
      b += 1
    }
    out
  }

  /** Accumulates Eq. (11)-(12) into one row's `acc = (B | c)` of length
    * `J² + J`: `B += δδᵀ` in the first `J²` slots (row-major), upper
    * triangle only ([[mirror]] fills the lower one), `c += x·δ` in the last
    * `J` (mutates `acc`).
    */
  private[core] def accumulate(acc: Array[Double], delta: Array[Double], x: Double): Unit = {
    val jn = delta.length
    val cOff = jn * jn
    var a = 0
    while (a < jn) {
      val da = delta(a)
      acc(cOff + a) += x * da
      if (da != 0.0) {
        var b = a
        while (b < jn) { acc(a * jn + b) += da * delta(b); b += 1 }
      }
      a += 1
    }
  }

  /** Copies the upper triangle of the row-major `J×J` matrix at the start
    * of `acc` into its lower one. `δ_a·δ_b = δ_b·δ_a` exactly, so the result
    * is the B that summing both triangles would give, bit for bit.
    */
  private[core] def mirror(acc: Array[Double], jn: Int): Unit = {
    var a = 1
    while (a < jn) {
      var b = 0
      while (b < a) { acc(a * jn + b) = acc(b * jn + a); b += 1 }
      a += 1
    }
  }

  private[core] def mergeAcc(x: Array[Double], y: Array[Double]): Array[Double] = {
    var i = 0
    while (i < x.length) { x(i) += y(i); i += 1 }
    x
  }

  /** Eq. (10): row = c · (B + λI)^{-1} from `acc = (B | c)`, with B's upper
    * triangle filled ([[accumulate]]). B + λI is
    * symmetric positive definite for λ > 0, so this is the Cholesky solution
    * of `(B + λI) y = c`.
    */
  private[core] def solveRow(acc: Array[Double], jn: Int, lambda: Double): Array[Double] = {
    val m = new DenseMatrix(jn, jn, java.util.Arrays.copyOf(acc, jn * jn))
    mirror(m.data, jn)
    var d = 0
    while (d < jn) { m(d, d) += lambda; d += 1 }
    DenseMatrix.solve(m, java.util.Arrays.copyOfRange(acc, jn * jn, jn * jn + jn))
  }
}
