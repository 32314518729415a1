package repro.core

import org.apache.spark.SparkException
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, SparseTensor, TensorEntry}

/** Which Algorithm-2/3 variant to run (Section III-C). */
sealed trait PTuckerVariant
object PTuckerVariant {
  /** Memory-optimized default: δ recomputed per (entry, core-cell) pair. */
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
  * @param partitions     entry-RDD partitions ≙ the paper's thread count T
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
  * `A^(n)` across OpenMP threads; here the per-row normal equations
  * `(B_{i_n}, c_{i_n})` of Eq. (11)-(12) are assembled by `combineByKey`
  * keyed on the mode-`n` index — map-side combiners play the role of
  * per-thread partial sums, the shuffle is the paper's row aggregation, and
  * each reducer solves its `J_n×J_n` system (Eq. 10). The driver only ever
  * holds the factor matrices themselves (`I_n×J_n`, small by assumption).
  */
object PTucker {

  import TuckerKernels.{CoreCells, FactorData, NoSkip, cellProduct, coreCells, factorData}

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
    val sc = spark.sparkContext
    val T = if (config.partitions > 0) config.partitions else sc.defaultParallelism
    val cached = config.variant == PTuckerVariant.Cache

    val entries = tensor.entriesRdd(T).persist(StorageLevel.MEMORY_AND_DISK)
    var pres: RDD[(TensorEntry, Array[Double])] = null
    try {
      require(entries.count() > 0, "empty tensor")
      val normX = tensor.frobeniusNorm

      // Line 1 of Algorithm 2: Uniform(0,1) init of factors and core.
      val factors = Array.tabulate(order)(n =>
        DenseMatrix.rand(tensor.dims(n), config.ranks(n), config.seed + n))
      var core = CoreTensor.rand(config.ranks, config.seed + 100)

      // Algorithm 3 lines 1-4: precompute the Pres cache table (Cache only).
      if (cached) {
        val bF = sc.broadcast(factorData(factors))
        val bC = sc.broadcast(coreCells(core))
        pres = materialize(entries.map(e => (e, computePres(e.idx, bF.value, bC.value))))
        // unpersist, NOT destroy: the map closure above stays a field of the
        // cached RDD even after checkpoint truncation, and task serialization
        // still writes the broadcast stub — destroy would poison every later
        // job over `pres`.
        bF.unpersist(); bC.unpersist()
      }

      var history = Vector.empty[IterStat]
      var prevError = Double.MaxValue
      var converged = false
      var iter = 0
      while (iter < config.maxIters && !converged) {
        val t0 = System.nanoTime()

        // Algorithm 2 line 3 / Algorithm 3 lines 5-15: update each A^(n).
        var n = 0
        while (n < order) {
          val mode = n
          val jn = config.ranks(n)
          val lambda = config.lambda
          val bF = sc.broadcast(factorData(factors))
          val bC = sc.broadcast(coreCells(core))

          // The variant decides only where δ comes from: recomputed from the
          // entry (Eq. 13) or read off the entry's Pres row (Alg. 3 line 12).
          val deltas: RDD[(Int, (Array[Double], Double))] =
            if (cached) pres.map { case (e, p) =>
              (e.idx(mode), (deltaFromPres(e.idx, p, mode, jn, bF.value, bC.value), e.value))
            }
            else entries.map(e =>
              (e.idx(mode), (computeDelta(e.idx, mode, jn, bF.value, bC.value), e.value)))
          // combineByKey, not aggregateByKey: the latter deserializes its
          // zero value once per (key, partition), which dominates at high T
          val seqOp = (acc: Array[Double], dx: (Array[Double], Double)) => {
            accumulate(acc, dx._1, dx._2); acc
          }
          val solvedRows =
            try deltas
              .combineByKey(
                (dx: (Array[Double], Double)) => seqOp(new Array[Double](jn * jn + jn), dx),
                seqOp, mergeAcc _)
              .mapValues(solveRow(_, jn, lambda))
              .collectAsMap()
            catch {
              case e: SparkException => throw new IllegalStateException(
                s"P-Tucker ${config.variant}: row solve failed at iteration ${iter + 1}, mode $n", e)
            }

          // Driver-side row substitution. Rows with Ω^(n)_{i_n} = ∅ have
          // B = 0, c = 0, so Eq. (10) gives the zero row (pure regularization).
          val updated = DenseMatrix.zeros(tensor.dims(n), jn)
          solvedRows.foreach { case (i, row) => updated.setRow(i, row) }
          factors(n) = updated

          // Algorithm 3 lines 16-19: patch Pres multiplicatively for mode n.
          // bF still holds the old factors and bC the core.
          if (cached) {
            val bNew = sc.broadcast(factorData(factors))
            val old = pres
            pres = materialize(old.map { case (e, p) =>
              (e, patchPres(e.idx, p, mode, bF.value(mode), bC.value, bNew.value))
            })
            old.unpersist(blocking = false)
            // see the Pres-creation note: Pres closures keep these stubs
            bF.unpersist(); bC.unpersist(); bNew.unpersist()
          } else {
            bF.destroy(); bC.destroy()
          }
          n += 1
        }

        // Algorithm 2 line 4: reconstruction error (Eq. 6) — fully parallel.
        val sse = TuckerKernels.sumSquaredError(spark, entries, factors, core)
        val error = math.sqrt(sse)
        if (!error.isFinite)
          throw new IllegalStateException(
            s"P-Tucker ${config.variant}: reconstruction error is $error at iteration ${iter + 1}")

        // Algorithm 2 lines 5-6 (+ Algorithm 4): truncate "noisy" core cells.
        if (config.variant == PTuckerVariant.Approx && core.nnz > 1) {
          val r = computeRBeta(spark, entries, factors, core)
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
    } finally {
      entries.unpersist(blocking = false)
      if (pres != null) pres.unpersist(blocking = false)
    }
  }

  /** Persists and counts one Pres table. The local checkpoint truncates its
    * lineage, so the table neither keeps the broadcasts of earlier tables
    * alive nor grows an unbounded chain of patch closures across iterations.
    */
  private def materialize(p: RDD[(TensorEntry, Array[Double])]): RDD[(TensorEntry, Array[Double])] = {
    p.persist(StorageLevel.MEMORY_AND_DISK)
    p.localCheckpoint()
    p.count()
    p
  }

  /** Intermediate-data model of Table III, in doubles: what the algorithm
    * holds *beyond* X, G and the factor matrices. Default: per-task
    * δ, c (J) and B, (B+λI)^{-1} (J²) → `O(T·J²)`. Cache: the Pres table
    * → `O(|Ω|·J^N)`. Approx: the R(β) vector → `O(J^N)` (+ the default's
    * per-task data).
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

  /** Eq. (13): δ^{(n)}_α — length-J_n vector; O(N) multiplies per core cell. */
  private[core] def computeDelta(idx: Array[Int], n: Int, jn: Int,
                                 f: FactorData, cells: CoreCells): Array[Double] = {
    val out = new Array[Double](jn)
    var b = 0
    while (b < cells.length) {
      val c = cells(b)
      out(c._1(n)) += cellProduct(idx, c._1, c._2, n, f)
      b += 1
    }
    out
  }

  /** Algorithm 3 line 4: `Pres[α][β] = G_β ∏_k a^{(k)}_{i_k j_k}`, aligned
    * with the core-cell enumeration order.
    */
  private[core] def computePres(idx: Array[Int], f: FactorData, cells: CoreCells): Array[Double] = {
    val out = new Array[Double](cells.length)
    var b = 0
    while (b < cells.length) {
      val c = cells(b)
      out(b) = cellProduct(idx, c._1, c._2, NoSkip, f)
      b += 1
    }
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
    * cell, accumulated in one distributed pass:
    * `R(β) = Σ_α p_β(α) · (2·pred(α) - p_β(α) - 2·x_α)` where
    * `p_β(α) = G_β ∏_n a^{(n)}_{i_n j_n}` and `pred = Σ_β p_β`.
    */
  private[core] def computeRBeta(spark: SparkSession, entries: RDD[TensorEntry],
                                 factors: Array[DenseMatrix], core: CoreTensor): Array[Double] = {
    val bF = spark.sparkContext.broadcast(factorData(factors))
    val bC = spark.sparkContext.broadcast(coreCells(core))
    val nCells = core.nnz
    try {
      entries.treeAggregate(new Array[Double](nCells))(
        seqOp = { (acc, e) =>
          val ps = computePres(e.idx, bF.value, bC.value)
          var pred = 0.0
          var b = 0
          while (b < ps.length) { pred += ps(b); b += 1 }
          b = 0
          while (b < ps.length) {
            acc(b) += ps(b) * (2.0 * pred - ps(b) - 2.0 * e.value)
            b += 1
          }
          acc
        },
        combOp = mergeAcc)
    } finally { bF.destroy(); bC.destroy() }
  }
}
