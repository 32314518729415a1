package perfbench

import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.SparkSession
import repro.core.{PTucker, PTuckerConfig, PTuckerVariant, TuckerKernels, TuckerModel}
import repro.linalg.DenseMatrix
import repro.tensor.SparseTensor

import scala.collection.mutable.ArrayBuffer

/** P-Tucker fit benchmark (see perfbench/README.md).
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy] [--inject-fault]
  * }}}
  *
  * Sets up a local Spark session three times (session, generated tensor,
  * materialized 90/10 split, one discarded warm-up fit), then runs fits of
  * the workload one after another (a closed loop) for `--seconds`, checks
  * every fit's output, and prints a report followed by one JSON result line.
  * Fits that start in the first third of the loop finish warming the JIT:
  * they are checked but left out of the metrics. Exits 1 if any fit failed
  * or was rejected by a check.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        toy: Boolean, injectFault: Boolean)

  /** A metric as printed: its median over `n` samples. */
  final case class Metric(name: String, unit: String, value: Double, n: Int)

  /** What one fit returned, with the benchmark's own recomputations.
    * `warmUp` marks a fit of the loop's first third, which no metric uses.
    */
  final case class FitSample(model: TuckerModel, wallMs: Double, finalFit: Double,
                             recomputedError: Double, testRmse: Double,
                             cachedMb: Double, jobs: Seq[JobRecord], traced: Boolean,
                             warmUp: Boolean = false) {
    def iterMs: Double = model.history.map(_.millis).sum.toDouble
  }

  /** A live session holding one workload's materialized train/test split. */
  final class Setup(val spark: SparkSession, val blocks: BlockListener,
                    val train: SparseTensor, val test: SparseTensor, val nTrain: Long,
                    val trainNorm: Double) {
    def stop(): Unit = { spark.stop(); SparkSession.clearActiveSession(); SparkSession.clearDefaultSession() }
  }

  val SetupRepeats = 3
  val MinFits = 3
  /** λ of the solve probe: the fits' regularization (`PTuckerConfig` default). */
  val Lambda = 0.01

  /** Written by the probes so the JIT cannot drop the timed work. */
  @volatile var blackhole = 0.0

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parseArgs(argv))
      catch {
        case e: Throwable =>
          e.printStackTrace()
          3
      }
    sys.exit(code)
  }

  def parseArgs(argv: Array[String]): Args = {
    def required(flag: String): String = {
      val i = argv.indexOf(flag)
      require(i >= 0 && i + 1 < argv.length, s"missing $flag <value>")
      argv(i + 1)
    }
    val trace = required("--trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = required("--seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    Args(required("--workload"), required("--seed").toLong, seconds, trace == "1",
      toy = argv.contains("--toy"), injectFault = argv.contains("--inject-fault"))
  }

  def run(args: Args): Int = {
    val w = Workloads(args.workload, args.toy)
    val nproc = Runtime.getRuntime.availableProcessors
    val partitions = nproc

    // --- set-up, repeated so that its median is steady --------------------
    var setup: Setup = null
    val setupMs = (1 to SetupRepeats).map { _ =>
      if (setup != null) setup.stop()
      val (s, ms) = timed(setUp(w, args.seed, nproc))
      setup = s
      ms
    }
    println(f"perfbench ${w.name} seed ${args.seed} trace ${if (args.trace) 1 else 0}: " +
      f"local[$nproc], T=$partitions, |Ω_train|=${setup.nTrain}, ${w.variant}, J=${w.ranks.mkString("x")}, " +
      f"${w.iters} iterations")

    // --- closed loop of fits ----------------------------------------------
    val tracer = if (args.trace) Some(new PhaseTracer) else None
    val samples = ArrayBuffer.empty[FitSample]
    var attempted = 0
    var failed = 0
    var reference: Option[FitSample] = None
    val start = System.nanoTime()
    val warmUntil = start + args.seconds * 1000000000L / 3
    val deadline = start + args.seconds * 1000000000L
    var warmUps = 0
    while (attempted < warmUps + MinFits || System.nanoTime() < deadline) {
      val warmUp = System.nanoTime() < warmUntil
      if (warmUp) warmUps += 1
      // The traced mode alternates traced and untraced fits; the two medians
      // give the tracing overhead.
      val traced = tracer.filter(_ => attempted % 2 == 0)
      val k = attempted
      attempted += 1
      try {
        val s0 = fitOnce(setup, w, args.seed, partitions, s"fit-$k", traced)
        val s = (if (args.injectFault && k == 1) corrupt(setup, s0) else s0).copy(warmUp = warmUp)
        val problems = check(w, s, reference)
        println(describe(k, s) + (if (problems.isEmpty) "" else problems.mkString("  REJECTED: ", "; ", "")))
        if (problems.nonEmpty) failed += 1
        else if (reference.isEmpty) reference = Some(s)
        samples += s
      } catch {
        case e: Exception =>
          failed += 1
          println(s"fit $k FAILED: $e")
      }
    }
    val kept = samples.filterNot(_.warmUp).toSeq
    if (kept.isEmpty) {
      println("no fit completed")
      setup.stop()
      return 1
    }

    val failRatio = failed.toDouble / attempted
    val e2e = endToEnd(w, setup, setupMs, kept)
    println(s"end-to-end, medians over n samples ($attempted fits attempted, $failed failed, " +
      s"$warmUps warm-up fits left out):")
    (e2e :+ Metric("fail_ratio", "ratio", failRatio, attempted)).foreach(printMetric)

    val metrics = tracer match {
      case None => e2e
      case Some(_) =>
        val layers = perLayer(w, setup, args.seed, partitions, kept)
        println("per-layer, medians over n samples:")
        layers.foreach(printMetric)
        layers
    }
    setup.stop()

    val correct = failed == 0
    println(resultJson(correct, attempted, failed, metrics))
    if (correct) 0 else 1
  }

  // -------------------------------------------------------------------------
  // set-up and one fit
  // -------------------------------------------------------------------------

  /** Session start, tensor generation, materialization and a warm-up fit. */
  def setUp(w: Workload, seed: Long, nproc: Int): Setup = {
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName(s"perfbench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", nproc.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    val blocks = new BlockListener
    spark.sparkContext.addSparkListener(blocks)
    // The generated tensor stays cached for the session so that both halves
    // of the split read it instead of generating it again (unpersisting it
    // would also drop the halves' caches).
    val full = w.generate(spark, seed).persisted()
    val (train, test) = full.split(0.9)
    train.persisted()
    test.persisted()
    val nTrain = train.nnz
    require(nTrain > 0 && test.nnz > 0, "generated tensor has an empty split")
    val s = new Setup(spark, blocks, train, test, nTrain, train.frobeniusNorm)
    PTucker.fit(spark, train, config(w, seed, nproc))
    s
  }

  def config(w: Workload, seed: Long, partitions: Int): PTuckerConfig =
    PTuckerConfig(ranks = w.ranks, maxIters = w.iters, tol = 0.0, variant = w.variant,
      partitions = partitions, orthogonalize = true, seed = seed)

  def fitOnce(s: Setup, w: Workload, seed: Long, partitions: Int, tag: String,
              tracer: Option[PhaseTracer]): FitSample = {
    val sc = s.spark.sparkContext
    PerfbenchBus.drain(sc)
    val base = s.blocks.resetPeak()
    tracer.foreach(sc.addSparkListener)
    sc.setLocalProperty(PhaseTracer.FitProperty, tag)
    val (model, wallMs) =
      try timed(PTucker.fit(s.spark, s.train, config(w, seed, partitions)))
      finally {
        sc.setLocalProperty(PhaseTracer.FitProperty, null)
        PerfbenchBus.drain(sc)
        tracer.foreach(sc.removeSparkListener)
      }
    val cachedMb = (s.blocks.peakBytes - base) / 1e6
    evaluate(s, model, wallMs, cachedMb, tracer.map(_.jobsOf(tag)).getOrElse(Nil), tracer.isDefined)
  }

  /** The benchmark's own view of a fitted model. Eq. 6 and the test RMSE are
    * evaluated over one partition: `TuckerModel` sums partition results in
    * task-completion order, so with several partitions their last bits vary
    * from call to call even for the same model. `finalFit` is
    * `TuckerModel.fit`'s formula over that one-partition error.
    */
  def evaluate(s: Setup, model: TuckerModel, wallMs: Double, cachedMb: Double,
               jobs: Seq[JobRecord], traced: Boolean): FitSample = {
    val error = model.reconstructionError(s.spark, s.train, partitions = 1)
    FitSample(model, wallMs, 1.0 - error / s.trainNorm, error,
      model.testRmse(s.spark, s.test, partitions = 1), cachedMb, jobs, traced)
  }

  /** Fault injection for the benchmark's own test: scales the core, which
    * changes the model's error without changing its recorded history.
    */
  def corrupt(s: Setup, f: FitSample): FitSample = {
    val m = f.model
    val bad = m.copy(core = m.core.withValues(m.core.entries.map(_.value * 1.5)))
    evaluate(s, bad, f.wallMs, f.cachedMb, f.jobs, f.traced)
  }

  /** Output checks of one fit; empty when it passes. */
  def check(w: Workload, s: FitSample, reference: Option[FitSample]): Seq[String] = {
    val problems = ArrayBuffer.empty[String]
    val error = s.model.history.last.error
    if (!error.isFinite || !s.finalFit.isFinite || !s.testRmse.isFinite)
      problems += s"non-finite output (error $error, fit ${s.finalFit}, test_rmse ${s.testRmse})"
    // QR finalization preserves X̂, so Eq. 6 recomputed on the returned model
    // must match the last iteration's error (Approx truncates after it).
    if (w.variant != PTuckerVariant.Approx) {
      val e = s.recomputedError
      val rel = math.abs(e - error) / math.max(error, 1e-300)
      if (!(rel <= 1e-9)) problems += f"recomputed error $e%.12g differs from history $error%.12g (rel $rel%.2e)"
    }
    w.fitFloor.foreach { floor =>
      if (!(s.finalFit >= floor)) problems += f"final_fit ${s.finalFit}%.6f below floor $floor"
    }
    reference.foreach { r =>
      if (s.finalFit != r.finalFit || s.testRmse != r.testRmse)
        problems += s"not repeatable: final_fit ${s.finalFit} vs ${r.finalFit}, " +
          s"test_rmse ${s.testRmse} vs ${r.testRmse}"
    }
    problems.toSeq
  }

  // -------------------------------------------------------------------------
  // metrics
  // -------------------------------------------------------------------------

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty)
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  private def metric(name: String, unit: String, xs: Seq[Double]) =
    Metric(name, unit, median(xs), xs.length)

  def endToEnd(w: Workload, s: Setup, setupMs: Seq[Double], fits: Seq[FitSample]): Seq[Metric] = {
    val updates = w.order.toDouble * s.nTrain * w.iters
    Seq(
      metric("setup_s", "s", setupMs.map(_ / 1e3)),
      metric("fit_s", "s", fits.map(_.wallMs / 1e3)),
      metric("updates_per_s", "1/s", fits.map(f => updates / (f.iterMs / 1e3))),
      metric("final_fit", "ratio", fits.map(_.finalFit)),
      metric("test_rmse", "value", fits.map(_.testRmse)),
      metric("cached_mb_peak", "MB", fits.map(_.cachedMb)),
    )
  }

  /** Per-layer metrics: listener totals of the traced fits, `history`, and
    * single-call probes of the tensor, kernel and linalg layers.
    */
  def perLayer(w: Workload, s: Setup, seed: Long, partitions: Int, fits: Seq[FitSample]): Seq[Metric] = {
    val traced = fits.filter(_.traced)
    val untraced = fits.filterNot(_.traced)
    val phases = Phase.all.flatMap { p =>
      def per(unit: String, field: String)(f: Seq[JobRecord] => Double) =
        metric(s"core.$p.$field", unit, traced.map(t => f(t.jobs.filter(_.phase == p))))
      Seq(
        per("ms", "wall_ms")(_.map(_.wallMs.toDouble).sum),
        per("count", "jobs")(_.size.toDouble),
        per("ms", "executor_run_ms")(_.map(_.runMs.toDouble).sum),
        per("ms", "executor_cpu_ms")(_.map(_.cpuNs / 1e6).sum),
        per("ms", "gc_ms")(_.map(_.gcMs.toDouble).sum),
        per("MB", "shuffle_write_mb")(_.map(_.shuffleBytes / 1e6).sum),
        per("count", "shuffle_records")(_.map(_.shuffleRecords.toDouble).sum),
        per("MB", "peak_exec_mb")(js => if (js.isEmpty) 0.0 else js.map(_.peakExecBytes).max / 1e6),
      )
    }
    // Jobs from the first mode update on belong to the iterations; the ones
    // before it are the fit's repartition, norm and Pres build.
    def iterJobs(f: FitSample) = f.jobs.dropWhile(_.phase != Phase.ModeUpdate)
    val sc = s.spark.sparkContext
    val overheadPct =
      if (untraced.isEmpty) 0.0
      else 100.0 * (median(traced.map(_.wallMs)) / median(untraced.map(_.wallMs)) - 1.0)
    phases ++ Seq(
      metric("spark.jobs_per_iter", "count", traced.map(iterJobs(_).size.toDouble / w.iters)),
      metric("spark.tasks_per_iter", "count", traced.map(iterJobs(_).map(_.tasks).sum.toDouble / w.iters)),
      metric("spark.empty_job_ms", "ms", timesMs(3, 15)(sc.parallelize(1 to partitions, partitions).count())),
      metric("core.iter_first_ms", "ms", fits.map(_.model.history.head.millis.toDouble)),
      metric("core.iter_last_ms", "ms", fits.map(_.model.history.last.millis.toDouble)),
      metric("core.fit_overhead_ms", "ms", fits.map(f => f.wallMs - f.iterMs)),
      metric("core.driver_ms", "ms", traced.map(f => f.wallMs - f.jobs.map(_.wallMs).sum)),
      metric("tensor.entries_rdd_ms", "ms", timesMs(1, 3)(s.train.entriesRdd(partitions).count())),
      metric("tensor.norm_ms", "ms", timesMs(1, 3)(s.train.frobeniusNorm)),
    ) ++ kernelProbes(fits.last.model, s) ++ Seq(
      metric("scaling.efficiency", "ratio", Seq(scalingEfficiency(w, s, seed, partitions, fits))),
      Metric("trace.overhead_pct", "%", overheadPct, traced.length + untraced.length),
    )
  }

  /** `body`'s result and wall ms. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Wall ms of `body`, `reps` times after `warm` discarded calls. */
  def timesMs(warm: Int, reps: Int)(body: => Any): Seq[Double] = {
    (1 to warm).foreach(_ => body)
    (1 to reps).map(_ => timed(body)._2)
  }

  /** Single-thread probes on the trained model: Eq. 5 per entry (the
    * "core cell × factor rows" loop shared with δ and Pres), the J×J solve of
    * Eq. 10 and the thin QR of the largest factor.
    */
  def kernelProbes(model: TuckerModel, s: Setup): Seq[Metric] = {
    val order = model.order
    val entries = s.train.df.limit(20000).collect().map { r =>
      (Array.tabulate(order)(r.getInt), r.getDouble(order))
    }
    val factorData = model.factors.map(f => (f.cols, f.data))
    val cells = model.core.entries.map(e => (e.idx, e.value))
    var sink = 0.0
    val predictNs = timesMs(2, 7) {
      var i = 0
      while (i < entries.length) { sink += TuckerKernels.predict(entries(i)._1, factorData, cells); i += 1 }
    }.map(_ * 1e6 / entries.length)

    val largest = model.factors.maxBy(_.rows)
    val b = largest.gram
    (0 until b.rows).foreach(d => b(d, d) += Lambda)
    val c = Array.fill(b.rows)(1.0)
    val solves = 20000
    val solveUs = timesMs(2, 5) {
      var i = 0
      while (i < solves) { sink += DenseMatrix.solve(b, c)(0); i += 1 }
    }.map(_ * 1e3 / solves)
    val qrMs = timesMs(1, 5)(DenseMatrix.qr(largest))
    blackhole = sink
    Seq(
      metric("core.kernel.predict_ns", "ns", predictNs),
      metric("linalg.solve_us", "us", solveUs),
      metric("linalg.qr_ms", "ms", qrMs),
    )
  }

  /** First-iteration ms at T = 1 over nproc × first-iteration ms at T = nproc. */
  def scalingEfficiency(w: Workload, s: Setup, seed: Long, partitions: Int,
                        fits: Seq[FitSample]): Double = {
    val single = PTucker.fit(s.spark, s.train,
      config(w, seed, 1).copy(maxIters = 1, orthogonalize = false)).history.head.millis
    val parallel = median(fits.map(_.model.history.head.millis.toDouble))
    single / (partitions * parallel)
  }

  // -------------------------------------------------------------------------
  // output
  // -------------------------------------------------------------------------

  def describe(k: Int, s: FitSample): String =
    f"fit $k${if (s.traced) " (traced)" else ""}${if (s.warmUp) " (warm-up)" else ""}: " +
      f"${s.wallMs / 1e3}%.3f s, iterations " +
      s.model.history.map(_.millis).mkString("[", " ", "] ms") +
      f", final_fit ${s.finalFit}%.6f, test_rmse ${s.testRmse}%.6f, cached ${s.cachedMb}%.1f MB"

  def printMetric(m: Metric): Unit =
    println(f"  ${m.name}%-34s ${m.value}%14.6f ${m.unit}%-6s (n=${m.n})")

  def resultJson(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val body = metrics.map { m =>
      require(m.value.isFinite, s"${m.name} is not finite")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${body.mkString(", ")}}}"""
  }
}
