package repro.core

import org.apache.spark.{HashPartitioner, SparkException}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.{PartitionPruningRDD, RDD}
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, SparseTensor, TensorEntry}

import scala.collection.mutable
import scala.reflect.ClassTag
import scala.util.hashing.MurmurHash3

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
  * per fit in row blocks, one group of T partitions per mode, hashed on the
  * mode's index (MLlib ALS's in-block layout). A mode update is then one
  * stage of T tasks: each assembles its rows' normal equations
  * `(B_{i_n}, c_{i_n})` of Eq. (11)-(12), solves them (Eq. 10) and returns
  * the rows, with no shuffle. Cache's Pres table is aligned with the entries
  * instead, so Cache assembles the same equations by `combineByKey` on `i_n`.
  * The driver only ever holds the factor matrices themselves (`I_n×J_n`,
  * small by assumption).
  */
object PTucker {

  import TuckerKernels.{CoreCells, FactorData, NoSkip, cellProduct, coreCells, factorData}

  /** What a task needs of the model: the factors and the core's tree, built
    * once on the driver and shipped in one broadcast.
    */
  private[core] type ModelData = (FactorData, CoreTree)

  private def modelData(factors: Array[DenseMatrix], core: CoreTensor): ModelData =
    (factorData(factors), CoreTree(core))

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
    val T = if (config.partitions > 0) config.partitions else spark.sparkContext.defaultParallelism
    // Default and Approx update over row blocks, Cache over its Pres table.
    val blocks =
      if (config.variant == PTuckerVariant.Cache) None else Some(new BlockLayout(spark, tensor, T, config))
    val layout: Layout = blocks.getOrElse(new PresLayout(spark, tensor, T, config))
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

        // Algorithm 2 lines 3-4: update each A^(n); the last update also
        // returns the reconstruction error (Eq. 6) with the final factors.
        var sse = 0.0
        var n = 0
        while (n < order) {
          sse = layout.updateMode(n, factors, core, last = n == order - 1,
            s"P-Tucker ${config.variant}: row solve failed at iteration ${iter + 1}, mode $n")
          n += 1
        }
        val error = math.sqrt(sse)
        if (!error.isFinite)
          throw new IllegalStateException(
            s"P-Tucker ${config.variant}: reconstruction error is $error at iteration ${iter + 1}")

        // Algorithm 2 lines 5-6 (+ Algorithm 4): truncate "noisy" core cells.
        if (config.variant == PTuckerVariant.Approx && core.nnz > 1) {
          val r = computeRBeta(spark, blocks.get.modeBlocks(0), factors, core)
          val drop = math.min((config.truncationRate * core.nnz).toInt, core.nnz - 1)
          if (drop > 0) core = core.truncate(r, drop)
        }

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
    /** Reads the input, checking every entry ([[checkEntry]]), and returns
      * ‖X‖ over the observed entries. `factors` and `core` are the initial
      * model, from which Cache builds its Pres table.
      */
    def open(factors: Array[DenseMatrix], core: CoreTensor): Double

    /** Eq. (10)-(13) for mode `n`: replaces `factors(n)` by the solved rows.
      * Rows with Ω^(n)_{i_n} = ∅ have B = 0, c = 0, so Eq. (10) gives the
      * zero row (pure regularization). With `last`, returns the squared
      * reconstruction error (Eq. 6) with the updated factors, else 0. A
      * failed row solve throws an IllegalStateException with message
      * `failure`.
      */
    def updateMode(n: Int, factors: Array[DenseMatrix], core: CoreTensor, last: Boolean,
                   failure: => String): Double

    /** Releases everything the layout persisted or broadcast. */
    def close(): Unit
  }

  /** Default and Approx: the entries in row blocks ([[rowBlocks]]), placed
    * by [[Placement]]. A mode update is one stage of T tasks over the mode's
    * blocks, with no shuffle ([[solveBlocks]]).
    */
  private[core] final class BlockLayout(spark: SparkSession, tensor: SparseTensor, T: Int,
                                        config: PTuckerConfig) extends Layout {
    private val sc = spark.sparkContext
    private var placement: Broadcast[Placement] = _
    private var blocks: RDD[RowBlock] = _

    def open(factors: Array[DenseMatrix], core: CoreTensor): Double = {
      val (counts, sumSq) = inputChecked(countRows(tensor))
      val nnz = counts(0).sum
      require(nnz > 0, "empty tensor")
      placement = sc.broadcast(Placement(counts, nnz, T))
      blocks = rowBlocks(tensor, placement, T)
      blocks.count()
      math.sqrt(sumSq)
    }

    /** Mode `n`'s T blocks, which together hold every entry once. */
    def modeBlocks(n: Int): RDD[RowBlock] = {
      val t = T // the filter is serialized with the RDD; it must not capture the layout
      PartitionPruningRDD.create(blocks, _ / t == n)
    }

    def updateMode(n: Int, factors: Array[DenseMatrix], core: CoreTensor, last: Boolean,
                   failure: => String): Double = {
      val bM = sc.broadcast(modelData(factors, core))
      try {
        val updated = DenseMatrix.zeros(tensor.dims(n), config.ranks(n))
        val sse = rowSolve(failure) {
          solveBlocks(modeBlocks(n), n, config.ranks(n), config.lambda, last, bM, factors(n), updated)
        }
        factors(n) = updated
        sse
      } finally bM.destroy()
    }

    def close(): Unit = {
      if (blocks != null) blocks.unpersist(blocking = false)
      if (placement != null) placement.destroy()
    }
  }

  /** Cache: the entries and their Pres rows (Algorithm 3). Pres is aligned
    * with the entries, so a mode update sums each row's `(B | c)` by
    * `combineByKey` on `i_n` ([[solveFromPres]]), and Eq. (6) is a separate
    * pass over the entries.
    */
  private final class PresLayout(spark: SparkSession, tensor: SparseTensor, T: Int,
                                 config: PTuckerConfig) extends Layout {
    private val sc = spark.sparkContext
    private var entries: RDD[TensorEntry] = _
    private var pres: RDD[(TensorEntry, Array[Double])] = _
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
      val dims = tensor.dims
      entries = tensor.entriesRdd(T).map { e => checkEntry(dims, e.idx, e.value); e }
        .persist(StorageLevel.MEMORY_AND_DISK)
      require(inputChecked(entries.count()) > 0, "empty tensor")
      // Algorithm 3 lines 1-4: precompute the Pres cache table.
      val bM = broadcast(modelData(factors, core))
      pres = materialize(entries.mapPartitions { es =>
        val (f, tree) = bM.value
        val s = tree.scratch()
        es.map(e => (e, computePres(e.idx, f, tree, s)))
      })
      bM.unpersist()
      tensor.frobeniusNorm
    }

    def updateMode(n: Int, factors: Array[DenseMatrix], core: CoreTensor, last: Boolean,
                   failure: => String): Double = {
      val jn = config.ranks(n)
      val bF = broadcast(factorData(factors))
      val bC = broadcast(coreCells(core))
      val updated = DenseMatrix.zeros(tensor.dims(n), jn)
      rowSolve(failure)(solveFromPres(pres, n, jn, config.lambda, bF, bC, updated))
      factors(n) = updated
      // Algorithm 3 lines 16-19: patch Pres multiplicatively for mode n.
      // bF still holds the old factors and bC the core.
      val bNew = broadcast(factorData(factors))
      val old = pres
      pres = materialize(old.map { case (e, p) =>
        (e, patchPres(e.idx, p, n, bF.value(n), bC.value, bNew.value))
      })
      old.unpersist(blocking = false)
      Seq(bF, bC, bNew).foreach(_.unpersist())
      if (last) TuckerKernels.sumSquaredError(spark, entries, factors, core) else 0.0
    }

    def close(): Unit = {
      Seq(entries, pres).foreach(r => if (r != null) r.unpersist(blocking = false))
      pinned.foreach(_.destroy())
    }
  }

  /** Runs a mode's row solve. A solve that fails, in a task or on the
    * driver, becomes an IllegalStateException with message `failure`.
    */
  private def rowSolve[A](failure: => String)(solve: => A): A =
    try solve
    catch {
      case e @ (_: SparkException | _: IllegalArgumentException) => throw new IllegalStateException(failure, e)
    }

  /** Rejects an entry with an index outside `[0, dims(k))` or a value that
    * is not finite.
    */
  private def checkEntry(dims: Array[Int], idx: Array[Int], value: Double): Unit = {
    var k = 0
    while (k < dims.length) {
      if (idx(k) < 0 || idx(k) >= dims(k))
        throw new IllegalArgumentException(s"mode $k: index ${idx(k)} outside [0, ${dims(k)})")
      k += 1
    }
    if (!value.isFinite)
      throw new IllegalArgumentException(s"entry (${idx.mkString(", ")}): value $value is not finite")
  }

  /** Runs the job that first reads the input. A [[checkEntry]] failure in a
    * task surfaces as an IllegalArgumentException, not as Spark's job failure.
    */
  private def inputChecked[A](job: => A): A =
    try job
    catch {
      case e: SparkException if e.getCause.isInstanceOf[IllegalArgumentException] =>
        throw new IllegalArgumentException(e.getCause.getMessage, e)
    }

  /** One pass over the input: checks every entry and returns, per mode, the
    * number of entries in each row, and `Σ x²`.
    */
  private def countRows(tensor: SparseTensor): (Array[Array[Long]], Double) = {
    val order = tensor.order
    val dims = tensor.dims
    tensor.df.rdd
      .mapPartitions { rs =>
        val counts = dims.map(d => new Array[Long](d))
        var sumSq = 0.0
        rs.foreach { r =>
          val e = Array.tabulate(order)(r.getInt)
          val v = r.getDouble(order)
          checkEntry(dims, e, v)
          var n = 0
          while (n < order) { counts(n)(e(n)) += 1; n += 1 }
          sumSq += v * v
        }
        Iterator.single((counts, sumSq))
      }
      .treeReduce { case ((c1, s1), (c2, s2)) =>
        c1.zip(c2).foreach { case (a, b) => var i = 0; while (i < a.length) { a(i) += b(i); i += 1 } }
        (c1, s1 + s2)
      }
  }

  /** Which of its mode's T blocks each row's entries go to. `home(n)(i)` is
    * row `i`'s block, or `-1 - s` for a row split into parts: part `q` goes
    * to block `splits(n)(s)(q)`, and an entry to the part its index hashes to.
    */
  private[core] final case class Placement(home: Array[Array[Int]], splits: Array[Array[Array[Int]]]) {
    def isSplit(n: Int, i: Int): Boolean = home(n)(i) < 0

    /** The mode-`n` block of the entry with indices `idx`. */
    def blockOf(n: Int, idx: Array[Int]): Int = {
      val h = home(n)(idx(n))
      if (h >= 0) h
      else {
        val parts = splits(n)(-1 - h)
        parts(Math.floorMod(MurmurHash3.arrayHash(idx), parts.length))
      }
    }
  }

  private[core] object Placement {
    /** Balances each mode's entries over T blocks, from its rows' entry
      * counts. A row with more than `cap = ⌈|Ω|/2T⌉` entries is split into
      * `min(⌈count/cap⌉, T)` parts of about equal size. Rows and parts then
      * go, largest first, to the block with the fewest entries so far (ties
      * to the lower block). So no block gets more than about
      * `|Ω|/T + cap`, 1.5 times its share, however skewed the rows are; the
      * hashing of a split row's entries to its parts adds a little to that.
      */
    def apply(counts: Array[Array[Long]], nnz: Long, T: Int): Placement = {
      val cap = math.max(1L, (nnz + 2L * T - 1) / (2L * T))
      val home = counts.map(c => new Array[Int](c.length))
      val splits = counts.indices.map { n =>
        val c = counts(n)
        val rows = c.indices.filter(c(_) > 0)
        val parts = rows.map(i => math.min((c(i) + cap - 1) / cap, T.toLong).toInt)
        val size = rows.indices.map(r => c(rows(r)) / parts(r))
        val loads = mutable.PriorityQueue((0 until T).map(b => (0L, b)): _*)(Ordering[(Long, Int)].reverse)
        val split = mutable.ArrayBuffer.empty[Array[Int]]
        rows.indices.sortBy(r => (-size(r), rows(r))).foreach { r =>
          val blocks = Array.fill(parts(r)) {
            val (load, b) = loads.dequeue()
            loads.enqueue((load + size(r), b))
            b
          }
          home(n)(rows(r)) = if (blocks.length == 1) blocks(0) else { split += blocks; -split.length }
        }
        split.toArray
      }
      Placement(home, splits.toArray)
    }
  }

  /** One block of one mode's entries, in columnar form: entry `e` has
    * indices `idx(e·N until (e+1)·N)` and value `values(e)`. The entries are
    * sorted by the mode's index, so each row's entries form one run. `parts`
    * lists, ascending, the rows whose run is one part of a split row.
    */
  private[core] final case class RowBlock(idx: Array[Int], values: Array[Double], parts: Array[Int]) {
    def nnz: Int = values.length
    def order: Int = idx.length / values.length
    def isPart(i: Int): Boolean = java.util.Arrays.binarySearch(parts, i) >= 0
    /** Copies entry `e`'s indices into `out` (length N). */
    def indexInto(e: Int, out: Array[Int]): Unit = System.arraycopy(idx, e * out.length, out, 0, out.length)
  }

  /** The row-block layout, built with one shuffle: partition `n·T + b` holds
    * one [[RowBlock]] of the entries that `placement` sends to mode `n`'s
    * block `b`, so every entry is stored N times. Each map task sends one
    * columnar chunk per block. Partitions without entries hold no block. The
    * result is persisted but not yet computed.
    */
  private def rowBlocks(tensor: SparseTensor, placement: Broadcast[Placement], T: Int): RDD[RowBlock] = {
    val order = tensor.order
    val dims = tensor.dims
    tensor.df.rdd
      .mapPartitionsWithIndex { (src, rs) =>
        val place = placement.value
        val idx = Array.fill(order * T)(new mutable.ArrayBuilder.ofInt)
        val values = Array.fill(order * T)(new mutable.ArrayBuilder.ofDouble)
        rs.foreach { r =>
          val e = Array.tabulate(order)(r.getInt)
          val v = r.getDouble(order)
          var n = 0
          while (n < order) {
            val p = n * T + place.blockOf(n, e)
            idx(p) ++= e
            values(p) += v
            n += 1
          }
        }
        Iterator.range(0, order * T).collect {
          case p if values(p).length > 0 => (p, (src, idx(p).result(), values(p).result()))
        }
      }
      .partitionBy(new HashPartitioner(order * T))
      .mapPartitionsWithIndex { (p, chunks) =>
        val n = p / T
        sortedBlock(n, dims(n), order, chunks.map(_._2), placement.value.isSplit(n, _))
      }
      .persist(StorageLevel.MEMORY_AND_DISK)
  }

  /** Joins one partition's chunks into one block, sorted by the mode-`n`
    * index (in `[0, dim)`), then the other indices. The chunks are joined in
    * the order of the input partitions they came from, and the sort is
    * stable, so entries with the same index keep their input order. The
    * order of the entries, and with it every row's summation order, then
    * depends neither on the order in which the shuffle delivered the chunks
    * nor, for a row that is not split, on T. The sort is a counting sort on
    * the mode-`n` index, then a merge sort of each row's run.
    */
  private[core] def sortedBlock(n: Int, dim: Int, order: Int,
                                chunks: Iterator[(Int, Array[Int], Array[Double])],
                                isSplit: Int => Boolean): Iterator[RowBlock] = {
    val idxB = new mutable.ArrayBuilder.ofInt
    val valuesB = new mutable.ArrayBuilder.ofDouble
    chunks.toArray.sortBy(_._1).foreach { case (_, i, v) => idxB ++= i; valuesB ++= v }
    val idx = idxB.result()
    val values = valuesB.result()
    val m = values.length
    if (m == 0) return Iterator.empty
    val start = new Array[Int](dim + 1)
    var e = 0
    while (e < m) { start(idx(e * order + n) + 1) += 1; e += 1 }
    var i = 0
    while (i < dim) { start(i + 1) += start(i); i += 1 }
    val perm = new Array[Int](m)
    val next = java.util.Arrays.copyOf(start, dim)
    e = 0
    while (e < m) {
      val r = idx(e * order + n)
      perm(next(r)) = e
      next(r) += 1
      e += 1
    }
    val byOthers = (a: Int, b: Int) => {
      var c = 0
      var k = 0
      while (c == 0 && k < order) {
        if (k != n) c = Integer.compare(idx(a * order + k), idx(b * order + k))
        k += 1
      }
      c
    }
    val tmp = new Array[Int](m)
    i = 0
    while (i < dim) {
      if (start(i + 1) - start(i) > 1) mergeSort(perm, tmp, start(i), start(i + 1), byOthers)
      i += 1
    }
    val sortedIdx = new Array[Int](m * order)
    val sortedValues = new Array[Double](m)
    val parts = new mutable.ArrayBuilder.ofInt
    e = 0
    while (e < m) {
      System.arraycopy(idx, perm(e) * order, sortedIdx, e * order, order)
      sortedValues(e) = values(perm(e))
      val i = sortedIdx(e * order + n)
      if ((e == 0 || sortedIdx((e - 1) * order + n) != i) && isSplit(i)) parts += i
      e += 1
    }
    Iterator.single(RowBlock(sortedIdx, sortedValues, parts.result()))
  }

  /** Stable merge sort of `a(lo until hi)` by `cmp`, with `tmp` (as long as
    * `a`) as the merge buffer.
    */
  private def mergeSort(a: Array[Int], tmp: Array[Int], lo: Int, hi: Int, cmp: (Int, Int) => Int): Unit =
    if (hi - lo <= 16) {
      var i = lo + 1
      while (i < hi) {
        val v = a(i)
        var j = i - 1
        while (j >= lo && cmp(a(j), v) > 0) { a(j + 1) = a(j); j -= 1 }
        a(j + 1) = v
        i += 1
      }
    } else {
      val mid = (lo + hi) >>> 1
      mergeSort(a, tmp, lo, mid, cmp)
      mergeSort(a, tmp, mid, hi, cmp)
      if (cmp(a(mid - 1), a(mid)) > 0) {
        System.arraycopy(a, lo, tmp, lo, hi - lo)
        var i = lo
        var j = mid
        var k = lo
        while (k < hi) {
          if (j >= hi || (i < mid && cmp(tmp(i), tmp(j)) <= 0)) { a(k) = tmp(i); i += 1 }
          else { a(k) = tmp(j); j += 1 }
          k += 1
        }
      }
    }

  /** One block's share of a mode update (see [[solveBlock]]): the solved
    * rows (row-major) with the SSE over their entries, and each part of a
    * split row, `partStride(J)` doubles apiece.
    */
  private final case class BlockSolve(rows: Array[Int], data: Array[Double], sse: Double,
                                      partRows: Array[Int], parts: Array[Double])

  /** A part's `(B | c)`, `s` and `g` (see [[solveBlock]]). */
  private def partStride(jn: Int): Int = jn * jn + 2 * jn + 1

  /** Mode `n`'s update over its row blocks: one task per block, no shuffle.
    * Rows come back solved, except a split row, whose parts' `(B | c)` the
    * driver sums, in partition order, and solves. Writes every row into
    * `updated`. With `withSse`, returns Eq. (6)'s sum over the mode's
    * entries with the new rows (`old` holds the rows before the update):
    * each block's SSE in partition order, then each part's [[partSse]].
    */
  private def solveBlocks(blocks: RDD[RowBlock], n: Int, jn: Int, lambda: Double, withSse: Boolean,
                          bM: Broadcast[ModelData], old: DenseMatrix, updated: DenseMatrix): Double = {
    val solved = blocks
      .mapPartitionsWithIndex { (p, it) =>
        it.map(b => (p, solveBlock(b, n, jn, lambda, withSse, bM.value)))
      }
      .collectAsMap()
      .toSeq.sortBy(_._1).map(_._2)
    val stride = partStride(jn)
    val split = mutable.LinkedHashMap.empty[Int, Array[Double]]
    var sse = 0.0
    solved.foreach { s =>
      var r = 0
      while (r < s.rows.length) {
        System.arraycopy(s.data, r * jn, updated.data, s.rows(r) * jn, jn)
        r += 1
      }
      sse += s.sse
      s.partRows.indices.foreach { q =>
        mergeAcc(split.getOrElseUpdate(s.partRows(q), new Array[Double](jn * jn + jn)),
          java.util.Arrays.copyOfRange(s.parts, q * stride, q * stride + jn * jn + jn))
      }
    }
    split.foreach { case (i, acc) => updated.setRow(i, solveRow(acc, jn, lambda)) }
    if (withSse)
      solved.foreach { s =>
        s.partRows.indices.foreach(q => sse += partSse(s.parts, q * stride, jn, s.partRows(q), old, updated))
      }
    sse
  }

  /** Mode `n`'s update of one row block. For each row's run, `acc = (B | c)`
    * of Eq. (11)-(12) from each entry's δ (Eq. 13). A whole row is solved
    * here (Eq. 10), and with `withSse` its `Σ (x_α − a_{i_n}·δ_α)²` with the
    * new row goes into the block's SSE: in the last mode, the block's share
    * of Eq. (6) with the final factors. A run that is one part of a split
    * row returns `acc` instead, followed, with `withSse`, by `s = Σ r₀²` and
    * `g = Σ r₀·δ`, where `r₀ = x − a_old·δ` is the residual with the row's
    * old value (zeros without `withSse`).
    */
  private def solveBlock(b: RowBlock, n: Int, jn: Int, lambda: Double, withSse: Boolean,
                         model: ModelData): BlockSolve = {
    val (f, tree) = model
    val s = tree.scratch()
    val order = b.order
    val idx = new Array[Int](order)
    val acc = new Array[Double](jn * jn + jn)
    val runDeltas = mutable.ArrayBuffer.empty[Array[Double]]
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
      runDeltas.clear()
      var e = start
      while (e < b.nnz && b.idx(e * order + n) == i) {
        b.indexInto(e, idx)
        val delta = computeDelta(idx, n, jn, f, tree, s)
        accumulate(acc, delta, b.values(e))
        if (withSse) runDeltas += delta
        e += 1
      }
      if (b.isPart(i)) {
        val g = new Array[Double](jn)
        var s = 0.0
        var k = 0
        while (k < runDeltas.length) {
          val r0 = residual(b.values(start + k), oldRows, i * jn, runDeltas(k))
          s += r0 * r0
          var j = 0
          while (j < jn) { g(j) += r0 * runDeltas(k)(j); j += 1 }
          k += 1
        }
        partRows += i
        parts ++= acc
        parts += s
        parts ++= g
      } else {
        val row = solveRow(acc, jn, lambda)
        var k = 0
        while (k < runDeltas.length) {
          val r = residual(b.values(start + k), row, 0, runDeltas(k))
          sse += r * r
          k += 1
        }
        rows += i
        data ++= row
      }
      start = e
    }
    BlockSolve(rows.result(), data.result(), sse, partRows.result(), parts.result())
  }

  /** `x − a·δ` for the row `a = rows(off until off + δ.length)`. */
  private def residual(x: Double, rows: Array[Double], off: Int, delta: Array[Double]): Double = {
    var pred = 0.0
    var j = 0
    while (j < delta.length) { pred += rows(off + j) * delta(j); j += 1 }
    x - pred
  }

  /** One part's share of Eq. (6) with split row `i`'s new value `a`, from
    * the part's B, `s` and `g` at `off` in `parts` (see [[solveBlock]]).
    * With `r = r₀ − d·δ` and `d = a − a_old`, it is `s − 2·d·g + dᵀ·B·d`:
    * the residuals' sum expanded around the old row, exact up to rounding,
    * which grows only as far as the new row fits the part better than the
    * old one.
    */
  private def partSse(parts: Array[Double], off: Int, jn: Int, i: Int,
                      old: DenseMatrix, updated: DenseMatrix): Double = {
    val d = Array.tabulate(jn)(j => updated(i, j) - old(i, j))
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

  /** Cache's mode-`n` update: δ read off each entry's Pres row (Alg. 3
    * line 12), `(B | c)` summed per row by `combineByKey` on `i_n`, solved
    * row by row; writes the rows into `updated`. combineByKey, not
    * aggregateByKey: the latter deserializes its zero value once per
    * (key, partition), which dominates at high T.
    */
  private def solveFromPres(pres: RDD[(TensorEntry, Array[Double])], n: Int, jn: Int, lambda: Double,
                            bF: Broadcast[FactorData], bC: Broadcast[CoreCells],
                            updated: DenseMatrix): Unit = {
    val seqOp = (acc: Array[Double], dx: (Array[Double], Double)) => {
      accumulate(acc, dx._1, dx._2); acc
    }
    pres
      .map { case (e, p) => (e.idx(n), (deltaFromPres(e.idx, p, n, jn, bF.value, bC.value), e.value)) }
      .combineByKey(
        (dx: (Array[Double], Double)) => seqOp(new Array[Double](jn * jn + jn), dx),
        seqOp, mergeAcc _)
      .mapValues(solveRow(_, jn, lambda))
      .collectAsMap()
      .foreach { case (i, row) => updated.setRow(i, row) }
  }

  /** Persists and counts one Pres table (unpersisting it again if the count
    * fails). The local checkpoint truncates its lineage, so the table
    * neither keeps the broadcasts of earlier tables alive nor grows an
    * unbounded chain of patch closures across iterations.
    */
  private def materialize(p: RDD[(TensorEntry, Array[Double])]): RDD[(TensorEntry, Array[Double])] = {
    p.persist(StorageLevel.MEMORY_AND_DISK)
    p.localCheckpoint()
    try p.count()
    catch { case e: Throwable => p.unpersist(blocking = false); throw e }
    p
  }

  /** Intermediate-data model of Table III, in doubles: what the algorithm
    * holds *beyond* X, G and the factor matrices. Default: per-task
    * δ, c (J) and B, (B+λI)^{-1} (J²) → `O(T·J²)`. Cache: the Pres table
    * → `O(|Ω|·J^N)`. Approx: the R(β) vector → `O(J^N)` (+ the default's
    * per-task data). Default's δ costs `O(nodes(G))` per entry and mode
    * ([[CoreTree]]), the paper's Cache time without Cache's memory; for it
    * a task holds the core's tree, a re-layout of G, and `O(nodes(G))`
    * scratch doubles, no more than G itself, so neither is modelled. Not
    * modelled either, because they depend on the data: Default and Approx
    * store the entries N times, once per mode's row blocks, in columnar
    * form (X itself, N copies), and a last-mode task also holds one run's
    * δ's for the Eq.-6 sum: one row's, or one part's of a split row, so
    * about `|Ω|/2T · J` at most. The parts of split rows add `O(T·J²)` on
    * the driver, and the row placement `Σ I_n` ints.
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

  /** Eq. (13): δ^{(n)}_α, a length-J_n vector, by contracting the core's
    * tree ([[CoreTree.delta]]): one multiply per tree node. `s` is the
    * task's [[CoreTree.scratch]].
    */
  private[core] def computeDelta(idx: Array[Int], n: Int, jn: Int, f: FactorData,
                                 tree: CoreTree, s: Array[Array[Double]]): Array[Double] = {
    val out = new Array[Double](jn)
    tree.delta(idx, n, f, s, out)
    out
  }

  /** Algorithm 3 line 4: `Pres[α][β] = G_β ∏_k a^{(k)}_{i_k j_k}`, aligned
    * with the core-cell enumeration order ([[CoreTree.products]]).
    */
  private[core] def computePres(idx: Array[Int], f: FactorData, tree: CoreTree,
                                s: Array[Array[Double]]): Array[Double] = {
    val out = new Array[Double](tree.nnz)
    tree.products(idx, f, s, out)
    out
  }

  /** Algorithm 3 line 12: δ from the cache — O(1) per core cell, falling
    * back to the O(N) product when the stored mode-n entry is ~0.
    */
  private[core] def deltaFromPres(idx: Array[Int], p: Array[Double], n: Int, jn: Int,
                                  f: FactorData, cells: CoreCells): Array[Double] = {
    val out = new Array[Double](jn)
    val (colsN, dataN) = f(n)
    var b = 0
    while (b < cells.length) {
      val (cIdx, g) = cells(b)
      val a = dataN(idx(n) * colsN + cIdx(n))
      // degenerate cell: recompute the product without mode n (paper note)
      out(cIdx(n)) += (if (math.abs(a) > 1e-12) p(b) / a else cellProduct(idx, cIdx, g, n, f))
      b += 1
    }
    out
  }

  /** Algorithm 3 line 19: `Pres *= a_new/a_old` for mode `n`, where `oldF`
    * is the old `A^(n)` and `f` holds the updated factors; recomputes the
    * full product when the old entry is ~0 (division is unsafe there).
    */
  private[core] def patchPres(idx: Array[Int], p: Array[Double], n: Int,
                              oldF: (Int, Array[Double]), cells: CoreCells,
                              f: FactorData): Array[Double] = {
    val out = new Array[Double](p.length)
    val (colsO, dataO) = oldF
    val (colsN, dataN) = f(n)
    var b = 0
    while (b < cells.length) {
      val (cIdx, g) = cells(b)
      val aOld = dataO(idx(n) * colsO + cIdx(n))
      out(b) =
        if (math.abs(aOld) > 1e-12) p(b) / aOld * dataN(idx(n) * colsN + cIdx(n))
        else cellProduct(idx, cIdx, g, NoSkip, f)
      b += 1
    }
    out
  }

  /** Accumulates Eq. (11)-(12) into one row's `acc = (B | c)` of length
    * `J² + J`: `B += δδᵀ` in the first `J²` slots (row-major), `c += x·δ`
    * in the last `J` (mutates `acc`).
    */
  private[core] def accumulate(acc: Array[Double], delta: Array[Double], x: Double): Unit = {
    val jn = delta.length
    val cOff = jn * jn
    var a = 0
    while (a < jn) {
      val da = delta(a)
      acc(cOff + a) += x * da
      if (da != 0.0) {
        var b = 0
        while (b < jn) { acc(a * jn + b) += da * delta(b); b += 1 }
      }
      a += 1
    }
  }

  private[core] def mergeAcc(x: Array[Double], y: Array[Double]): Array[Double] = {
    var i = 0
    while (i < x.length) { x(i) += y(i); i += 1 }
    x
  }

  /** Eq. (10): row = c · (B + λI)^{-1} from `acc = (B | c)`. B + λI is
    * symmetric positive definite for λ > 0, so this is the Cholesky solution
    * of `(B + λI) y = c`.
    */
  private[core] def solveRow(acc: Array[Double], jn: Int, lambda: Double): Array[Double] = {
    val m = new DenseMatrix(jn, jn, java.util.Arrays.copyOf(acc, jn * jn))
    var d = 0
    while (d < jn) { m(d, d) += lambda; d += 1 }
    DenseMatrix.solve(m, java.util.Arrays.copyOfRange(acc, jn * jn, jn * jn + jn))
  }

  /** Eq. (14): partial reconstruction error R(β) for every surviving core
    * cell, accumulated in one distributed pass over `blocks`, which must hold
    * every entry once (one mode's `BlockLayout.modeBlocks`):
    * `R(β) = Σ_α p_β(α) · (2·pred(α) - p_β(α) - 2·x_α)` where
    * `p_β(α) = G_β ∏_n a^{(n)}_{i_n j_n}` and `pred = Σ_β p_β`.
    */
  private[core] def computeRBeta(spark: SparkSession, blocks: RDD[RowBlock],
                                 factors: Array[DenseMatrix], core: CoreTensor): Array[Double] = {
    val bM = spark.sparkContext.broadcast(modelData(factors, core))
    val nCells = core.nnz
    try {
      blocks.treeAggregate(new Array[Double](nCells))(
        seqOp = { (acc, blk) =>
          val (f, tree) = bM.value
          val s = tree.scratch()
          val idx = new Array[Int](blk.order)
          val ps = new Array[Double](nCells)
          var e = 0
          while (e < blk.nnz) {
            blk.indexInto(e, idx)
            val pred = tree.products(idx, f, s, ps)
            var b = 0
            while (b < ps.length) {
              acc(b) += ps(b) * (2.0 * pred - ps(b) - 2.0 * blk.values(e))
              b += 1
            }
            e += 1
          }
          acc
        },
        combOp = mergeAcc)
    } finally bM.destroy()
  }
}
