package repro.exp

import org.apache.spark.sql.SparkSession
import repro.TensorGen
import repro.core.{IterStat, PTucker, PTuckerConfig, PTuckerVariant}
import repro.tensor.{MemoryGuard, SparseTensor}

/** Figure-6/8/9/10 and Table-III experiments (Sections IV-B to IV-D),
  * scaled to container size (DESIGN.md §5). Every runner returns the
  * [[Report]] it prints so bench suites can assert on typed rows.
  */
object ScalabilityExperiments {

  /** The paper's 512 GB machine, scaled: dense methods get this many
    * doubles before SimulatedOom (128 MiB ≙ "does not fit").
    */
  val BenchBudgetDoubles: Long = 1L << 24

  private val Iters = 3

  private def fig6(title: String)(rows: => Seq[TimeRow]): Report[TimeRow] =
    TimeRow.report(title, "Config", Method.competitors, MemoryGuard.withBudget(BenchBudgetDoubles)(rows))

  private def competitorsRow(spark: SparkSession, label: String, t: SparseTensor, ranks: Array[Int]) =
    TimeRow.measure(spark, label, t, Method.competitors, ranks, Iters)

  /** Fig 6(a): running time vs tensor order N (I=30, |Ω|=1000, J=3). */
  def fig6Order(spark: SparkSession): Report[TimeRow] =
    fig6("Fig 6(a) — time/iter vs order (paper: P-Tucker fastest, wOPT O.O.M. N>=5)") {
      for (n <- 3 to 6) yield competitorsRow(spark, s"N=$n",
        TensorGen.uniform(spark, Array.fill(n)(30), 1000, seed = n), Array.fill(n)(3))
    }

  /** Fig 6(b): running time vs dimensionality I (N=3, |Ω|=10·I, J=5). */
  def fig6Dim(spark: SparkSession): Report[TimeRow] =
    fig6("Fig 6(b) — time/iter vs dimensionality (paper: wOPT O.O.M. I>=10^4)") {
      for (i <- Seq(100, 1000, 10000)) yield competitorsRow(spark, s"I=$i",
        TensorGen.uniform(spark, Array.fill(3)(i), 10L * i, seed = i), Array.fill(3)(5))
    }

  /** Fig 6(c): running time vs |Ω| (N=3, I=10⁴, J=5). */
  def fig6Nnz(spark: SparkSession): Report[TimeRow] =
    fig6("Fig 6(c) — time/iter vs |Ω| (paper: near-linear for P-Tucker)") {
      for (nnz <- Seq(1000L, 10000L, 100000L)) yield competitorsRow(spark, s"|Ω|=$nnz",
        TensorGen.uniform(spark, Array.fill(3)(10000), nnz, seed = nnz), Array.fill(3)(5))
    }

  /** Fig 6(d): running time vs rank J (N=3, I=10³, |Ω|=10⁵). */
  def fig6Rank(spark: SparkSession): Report[TimeRow] =
    fig6("Fig 6(d) — time/iter vs rank (paper: P-Tucker fastest, wOPT O.O.M.)") {
      for (j <- Seq(3, 5, 7, 9)) yield competitorsRow(spark, s"J=$j",
        TensorGen.uniform(spark, Array.fill(3)(1000), 100000, seed = j), Array.fill(3)(j))
    }

  /** Fig 8 row: ms/iter and the Table-III intermediate-data model, in KiB. */
  final case class CacheRow(order: Int, defaultMs: Option[Double], defaultKiB: Double,
                            cacheMs: Option[Double], cacheKiB: Double)

  /** Fig 8: P-Tucker vs P-Tucker-Cache, time + intermediate data vs order. */
  def fig8Cache(spark: SparkSession): Report[CacheRow] = {
    val rows = for (n <- 4 to 7) yield {
      val ranks = Array.fill(n)(3)
      val t = TensorGen.uniform(spark, Array.fill(n)(30), 1000, seed = n).persisted()
      val nnz = t.nnz
      val d = Harness.run(spark, Method.PTuckerDefault, t, ranks, Iters)
      val c = Harness.run(spark, Method.PTuckerCache, t, ranks, Iters)
      t.unpersist()
      def kib(v: PTuckerVariant) = PTucker.intermediateDoubles(PTuckerConfig(ranks, variant = v),
        spark.sparkContext.defaultParallelism, nnz) * 8.0 / 1024
      CacheRow(n, d.msPerIter, kib(PTuckerVariant.Default), c.msPerIter, kib(PTuckerVariant.Cache))
    }
    Report("Fig 8 — P-Tucker vs P-Tucker-Cache (paper: cache up to 1.7x faster, 29.5x more memory at N=10)",
      Seq("Order", "P-Tucker ms/iter", "P-Tucker interm.", "Cache ms/iter", "Cache interm."), rows) { r =>
      Seq(s"N=${r.order}", Report.ms(r.defaultMs), Report.kib(r.defaultKiB, 0),
        Report.ms(r.cacheMs), Report.kib(r.cacheKiB, 0))
    }
  }

  /** Fig 9 row: the same iteration of the Default and the Approx fit. */
  final case class ApproxRow(default: IterStat, approx: IterStat)

  /** Fig 9: per-iteration time and fit, P-Tucker vs P-Tucker-Approx
    * (N=3, I=10³, |Ω|=3·10⁵, J=8, p=0.2).
    */
  def fig9Approx(spark: SparkSession, iters: Int = 15): Report[ApproxRow] = {
    // |Ω| large enough that per-iteration compute (∝ |Ω|·|G|) dominates the
    // fixed Spark job overhead — otherwise the shrinking-core effect the
    // figure demonstrates is invisible under scheduling noise.
    val t = TensorGen.uniform(spark, Array.fill(3)(1000), 300000, seed = 9).persisted()
    def cfg(v: PTuckerVariant) = PTuckerConfig(ranks = Array.fill(3)(8), maxIters = iters,
      tol = 0.0, variant = v, truncationRate = 0.2, orthogonalize = false)
    val d = PTucker.fit(spark, t, cfg(PTuckerVariant.Default))
    val a = PTucker.fit(spark, t, cfg(PTuckerVariant.Approx))
    t.unpersist()
    Report("Fig 9 — per-iteration time and fit (paper: Approx overtakes default by iter ~8, lower fit)",
      Seq("Iter", "Default ms", "Default fit", "Approx ms", "Approx fit", "|G|"),
      d.history.zip(a.history).map { case (hd, ha) => ApproxRow(hd, ha) }) { case ApproxRow(hd, ha) =>
      Seq(s"${hd.iter}", Report.ms(Some(hd.millis.toDouble)), f"${hd.fit}%.4f",
        Report.ms(Some(ha.millis.toDouble)), f"${ha.fit}%.4f", s"${ha.coreNnz}")
    }
  }

  /** Fig 10 row: best ms/iter at T threads, speed-up over T=1, and the
    * Table-III intermediate-data model in KiB.
    */
  final case class ThreadRow(threads: Int, ms: Double, speedup: Double, kib: Double)

  /** Fig 10: speed-up and memory model vs thread count T (≙ partitions).
    * |Ω| is large enough that per-task compute dominates the fixed per-job
    * scheduling cost, otherwise Amdahl hides the row-parallel speed-up.
    */
  def fig10Threads(spark: SparkSession): Report[ThreadRow] = {
    val ranks = Array.fill(3)(5)
    val t = TensorGen.uniform(spark, Array.fill(3)(10000), 600000, seed = 10).persisted()
    val nnz = t.nnz
    // discarded warm-up: materializes the cached entries and JITs the kernels
    // so T=1 does not absorb one-time costs into its baseline
    Harness.run(spark, Method.PTuckerDefault, t, ranks, 1, partitions = 16)
    val times = for (p <- Seq(1, 2, 4, 8, 16)) yield {
      System.gc() // start each config from a quiet heap
      val r = Harness.run(spark, Method.PTuckerDefault, t, ranks, 4, partitions = p)
      // min over iterations: GC/JIT outliers otherwise drown the scaling curve
      (p, r.model.get.history.map(_.millis).min.toDouble)
    }
    t.unpersist()
    val t1 = times.head._2
    val rows = times.map { case (p, ms) =>
      ThreadRow(p, ms, t1 / ms, PTucker.intermediateDoubles(PTuckerConfig(ranks), p, nnz) * 8.0 / 1024)
    }
    Report("Fig 10 — thread scalability (paper: near-linear speed-up and memory up to T=20)",
      Seq("Threads", "ms/iter", "speed-up", "intermediate data"), rows) { r =>
      Seq(s"T=${r.threads}", Report.ms(Some(r.ms)), Report.ratio(r.speedup), Report.kib(r.kib, 3))
    }
  }

  /** Table III row: best late-iteration ms/iter and its growth over the
    * base configuration, measured and predicted by the complexity model.
    */
  final case class ComplexityRow(label: String, ms: Double, measured: Double, predicted: Double)

  /** Table III empirically: double one parameter at a time, compare the
    * measured time ratio against the complexity-model prediction
    * `O(N·I·J³ + N²·|Ω|·J^N)`.
    */
  def table3Complexity(spark: SparkSession): Report[ComplexityRow] = {
    // Large enough that per-iteration compute (∝ N²|Ω|J^N) dominates the
    // ~300 ms fixed Spark job overhead; ratios are min-over-late-iterations
    // to shed JIT/GC outliers.
    val (iBase, nnzBase, jBase, nBase) = (500, 1000000L, 6, 3)

    def predicted(n: Int, i: Int, nnz: Long, j: Int): Double =
      n.toDouble * i * j * j * j + n.toDouble * n * nnz * math.pow(j, n)

    def measure(n: Int, i: Int, nnz: Long, j: Int): Double = {
      val t = TensorGen.uniform(spark, Array.fill(n)(i), nnz, seed = 3).persisted()
      System.gc()
      val r = Harness.run(spark, Method.PTuckerDefault, t, Array.fill(n)(j), Iters)
      t.unpersist()
      r.model.get.history.drop(1).map(_.millis).min.toDouble
    }

    // A discarded first fit warms the JVM up, so that the base is not the
    // only measurement that pays for it.
    measure(nBase, iBase, nnzBase, jBase)
    val base = measure(nBase, iBase, nnzBase, jBase)
    val basePred = predicted(nBase, iBase, nnzBase, jBase)
    val variations = Seq(
      ("|Ω| x2", nBase, iBase, nnzBase * 2, jBase),
      ("J 6→12", nBase, iBase, nnzBase, 12),
      ("I x4", nBase, iBase * 4, nnzBase, jBase),
      ("N 3→4", nBase + 1, iBase, nnzBase, jBase),
    )
    val rows = ComplexityRow("base", base, 1.0, 1.0) +:
      variations.map { case (label, n, i, nnz, j) =>
        val ms = measure(n, i, nnz, j)
        ComplexityRow(label, ms, ms / base, predicted(n, i, nnz, j) / basePred)
      }
    Report("Table III — P-Tucker time vs complexity model (measured vs predicted growth)",
      Seq("Variation", "ms/iter", "measured ratio", "predicted ratio"), rows) { r =>
      Seq(r.label, Report.ms(Some(r.ms)), Report.ratio(r.measured), Report.ratio(r.predicted))
    }
  }
}
