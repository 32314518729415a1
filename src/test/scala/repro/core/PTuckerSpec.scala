package repro.core

import org.apache.spark.{BroadcastProbe, ListenerProbe}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TensorGen}
import repro.linalg.DenseMatrix
import repro.tensor.SparseTensor

import scala.collection.mutable

/** End-to-end behaviour of Algorithm 2 (+ variants) on small tensors. */
class PTuckerSpec extends SparkSpec {

  private def plantedTensor(nnz: Long = 500, seed: Long = 3): SparseTensor =
    TensorGen.lowRank(spark, dims = Array(10, 9, 8), ranks = Array(2, 2, 2),
      nnz = nnz, noiseSd = 0.0, seed = seed)

  private val baseConfig = PTuckerConfig(
    ranks = Array(2, 2, 2), lambda = 0.001, maxIters = 12, tol = 1e-9, partitions = 4)

  private lazy val planted = plantedTensor().persisted()
  private lazy val defaultModel = PTucker.fit(spark, planted, baseConfig)

  test("Theorem 2: reconstruction error is monotonically non-increasing") {
    val errs = defaultModel.history.map(_.error)
    assert(errs.nonEmpty)
    errs.sliding(2).foreach {
      case Seq(a, b) => assert(b <= a + 1e-9 * math.max(1.0, a), s"error rose: $a -> $b")
      case _         =>
    }
  }

  test("near-perfect fit on a noise-free planted low-rank tensor") {
    val fit = defaultModel.history.last.fit
    assert(fit > 0.95, s"fit $fit on exactly-representable tensor")
  }

  test("history records positive per-iteration times and core size") {
    assert(defaultModel.history.forall(_.millis >= 0))
    assert(defaultModel.history.forall(_.coreNnz == 8))
  }

  test("QR finalization yields orthonormal factor matrices") {
    defaultModel.factors.foreach { f =>
      assert(f.gram.maxAbsDiff(DenseMatrix.eye(f.cols)) < 1e-8)
    }
  }

  test("QR + core update preserves the reconstruction error (Eq. 8-9)") {
    val after = defaultModel.reconstructionError(spark, planted, partitions = 4)
    val before = defaultModel.history.last.error
    assert(math.abs(after - before) <= 1e-6 * math.max(1.0, before),
      s"orthogonalization changed error: $before -> $after")
  }

  test("converges early when tol is loose") {
    val m = PTucker.fit(spark, planted, baseConfig.copy(tol = 0.5, maxIters = 12))
    assert(m.history.size < 12)
  }

  test("rows with no observations become zero rows") {
    // mode-0 index 7 never observed (dims 8 but indices drawn from 0..6)
    val rng = new scala.util.Random(5)
    val entries = (0 until 200).map { _ =>
      (Array(rng.nextInt(7), rng.nextInt(6), rng.nextInt(6)), rng.nextDouble())
    }
    val t = SparseTensor.fromEntries(spark, Array(8, 6, 6), entries)
    val m = PTucker.fit(spark, t,
      PTuckerConfig(ranks = Array(2, 2, 2), maxIters = 2, partitions = 2, orthogonalize = false))
    assert(m.factors(0).row(7).forall(_ == 0.0))
    assert(m.factors(0).row(0).exists(_ != 0.0))
  }

  test("P-Tucker-Cache matches the default variant's trajectory") {
    val mc = PTucker.fit(spark, planted, baseConfig.copy(
      variant = PTuckerVariant.Cache, maxIters = 5))
    val md = PTucker.fit(spark, planted, baseConfig.copy(maxIters = 5))
    mc.history.zip(md.history).foreach { case (c, d) =>
      assert(math.abs(c.error - d.error) < 1e-5 * math.max(1.0, d.error),
        s"iter ${c.iter}: cache err ${c.error} vs default ${d.error}")
    }
  }

  test("P-Tucker-Approx shrinks the core tensor each iteration") {
    val m = PTucker.fit(spark, planted, baseConfig.copy(
      variant = PTuckerVariant.Approx, ranks = Array(3, 3, 3), maxIters = 5,
      truncationRate = 0.2, orthogonalize = false))
    val sizes = m.history.map(_.coreNnz)
    assert(sizes.head < 27, "first truncation should already have happened")
    sizes.sliding(2).foreach {
      case Seq(a, b) => assert(b < a || a == 1)
      case _         =>
    }
    assert(m.core.nnz == sizes.last)
  }

  /** Rows 0-2 of mode 0 hold most of the entries. */
  private def hotRowTensor(): SparseTensor = {
    val rng = new scala.util.Random(21)
    val entries = (0 until 600).map { k =>
      val i0 = if (k % 5 != 0) rng.nextInt(3) else 3 + rng.nextInt(9)
      (Array(i0, rng.nextInt(20), rng.nextInt(20)), rng.nextDouble())
    }.distinctBy(_._1.toSeq)
    SparseTensor.fromEntries(spark, Array(12, 20, 20), entries)
  }

  private def relDiff(a: Double, b: Double): Double =
    math.abs(a - b) / math.max(math.abs(a), 1e-300)

  test("partition count does not change the result materially") {
    for ((t, name) <- Seq((planted, "planted"), (hotRowTensor(), "hot rows"))) {
      val models = Seq(1, 4, 16).map(p =>
        p -> PTucker.fit(spark, t, baseConfig.copy(partitions = p, maxIters = 4)))
      val (_, m1) = models.head
      models.tail.foreach { case (p, m) =>
        assert(m.history.size == m1.history.size, s"$name, T=$p: iteration count")
        m1.history.zip(m.history).foreach { case (a, b) =>
          assert(relDiff(a.error, b.error) <= 1e-9, s"$name, T=$p, iter ${a.iter}: ${a.error} vs ${b.error}")
        }
        m1.factors.zip(m.factors).zipWithIndex.foreach { case ((a, b), n) =>
          val scale = a.data.map(math.abs).max
          assert(a.maxAbsDiff(b) <= 1e-9 * scale, s"$name, T=$p: factor $n differs by ${a.maxAbsDiff(b)}")
        }
      }
    }
  }

  test("rows with many entries are split, so that no block holds much more than its share") {
    val t = hotRowTensor()
    val nnz = t.nnz
    for (p <- Seq(2, 4, 16)) {
      val layout = new PTucker.BlockLayout(spark, t, p, baseConfig.copy(partitions = p))
      try {
        layout.open(Array.empty, null)
        assert(layout.blocks.getNumPartitions == p)
        (0 until 3).foreach { n =>
          val sizes = layout.blocks.map(_(n).nnz.toLong).collect()
          assert(sizes.sum == nnz, s"T=$p, mode $n: blocks hold ${sizes.sum} of $nnz entries")
          assert(sizes.max <= 1.5 * nnz / p, s"T=$p, mode $n: block sizes ${sizes.mkString(", ")}")
        }
      } finally layout.close()
    }
  }

  test("the recorded Eq.-6 error is the exact error of the returned model") {
    // The last mode update sums (x - a·δ)² with the final factors; it must
    // equal a separate pass, also near fit = 1 where Σx² - 2a·c + aᵀBa cancels.
    val noisy = TensorGen.lowRank(spark, dims = Array(10, 9, 8), ranks = Array(2, 2, 2),
      nnz = 500, noiseSd = 0.1, seed = 3).persisted()
    // At T = 16 every row of the planted tensors is split over blocks, so
    // the last mode's error comes from the split rows' parts.
    for ((t, name) <- Seq((noisy, "noisy"), (planted, "noise-free"));
         v <- Seq(PTuckerVariant.Default, PTuckerVariant.Approx); p <- Seq(4, 16)) {
      val m = PTucker.fit(spark, t, baseConfig.copy(variant = v, orthogonalize = false, partitions = p))
      // Approx records the error before its truncation; with |G| settled at
      // 4 cells the last truncation drops nothing, so the returned core is
      // the one the error was taken with.
      if (v == PTuckerVariant.Approx)
        assert(m.history.last.coreNnz == m.history.init.last.coreNnz, s"$name: core still shrinking")
      else if (name == "noise-free") assert(m.history.last.fit > 0.99, s"fit ${m.history.last.fit}")
      val exact = math.sqrt(TuckerKernels.sumSquaredError(spark, t.entriesRdd(4), m.factors, m.core))
      val got = m.history.last.error
      assert(relDiff(exact, got) <= 1e-9, s"$name, $v, T=$p: recorded $got vs exact $exact")
    }
    noisy.unpersist()
  }

  test("test RMSE on held-out entries of a noisy planted tensor is small") {
    val noisy = TensorGen.lowRank(spark, dims = Array(12, 10, 8), ranks = Array(2, 2, 2),
      nnz = 800, noiseSd = 0.01, seed = 9).persisted()
    val (train, test) = noisy.split(0.9)
    val m = PTucker.fit(spark, train, baseConfig.copy(maxIters = 15))
    val rmse = m.testRmse(spark, test, partitions = 4)
    // values are O(1); an accurate completion should sit near the noise floor
    assert(rmse < 0.2, s"test RMSE $rmse")
    noisy.unpersist()
  }

  test("config validation: rank larger than a dimension is rejected") {
    intercept[IllegalArgumentException] {
      PTucker.fit(spark, planted, baseConfig.copy(ranks = Array(20, 2, 2)))
    }
  }

  test("config validation: ranks arity must match the order") {
    intercept[IllegalArgumentException] {
      PTucker.fit(spark, planted, baseConfig.copy(ranks = Array(2, 2)))
    }
  }

  /** A tensor without data: `fit` on it fails with a NullPointerException as
    * soon as it reads entries, so an IllegalArgumentException shows that a
    * check ran before any job.
    */
  private val noData = SparseTensor(Array(10, 9, 8), null)

  test("config validation: negative lambda is rejected before any job runs") {
    intercept[IllegalArgumentException] {
      PTucker.fit(spark, noData, baseConfig.copy(lambda = -0.01))
    }
  }

  test("config validation: truncationRate outside [0, 1) is rejected before any job runs") {
    for (p <- Seq(-0.1, 1.0, Double.NaN)) {
      intercept[IllegalArgumentException] {
        PTucker.fit(spark, noData, baseConfig.copy(variant = PTuckerVariant.Approx, truncationRate = p))
      }
    }
  }

  /** The 1e200 entry alone fills row 0 of both modes. Mode 0 scales its
    * row to ~1e200, so mode 1 sees δ² = Inf.
    */
  private def overflowTensor(): SparseTensor = {
    val rng = new scala.util.Random(4)
    val entries = (0 until 40).map(_ => (Array(1 + rng.nextInt(5), 1 + rng.nextInt(5)), rng.nextDouble())) :+
      (Array(0, 0), 1e200)
    SparseTensor.fromEntries(spark, Array(6, 6), entries)
  }

  test("a non-finite reconstruction error fails the fit, naming iteration and variant") {
    // J = 1 keeps mode 1's solve from failing (Inf/Inf is NaN, not a
    // rejected pivot), and the error of iteration 1 is NaN.
    val t = overflowTensor()
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val e = intercept[IllegalStateException] {
      PTucker.fit(spark, t, PTuckerConfig(ranks = Array(1, 1), maxIters = 5, partitions = 2))
    }
    assert(e.getMessage.contains("iteration 1") && e.getMessage.contains("Default"), e.getMessage)
    assert((sc.getPersistentRDDs.keySet -- before).isEmpty, "a failed fit left RDDs persisted")
  }

  /** Asserts that no broadcast made since `before` outlives its release,
    * which Spark carries out asynchronously.
    */
  private def assertNoNewBroadcast(before: Set[Long], what: String): Unit =
    eventually(timeout(10.seconds), interval(50.millis)) {
      val leaked = BroadcastProbe.liveIds(spark.sparkContext) -- before
      assert(leaked.isEmpty, s"$what left broadcasts ${leaked.mkString(", ")}")
    }

  test("a failed row solve fails the fit, naming variant, iteration and mode") {
    // J = 2: mode 1's B + λI is all Inf, so its second Cholesky pivot is NaN.
    val t = overflowTensor()
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val broadcasts = BroadcastProbe.liveIds(sc)
    val e = intercept[IllegalStateException] {
      PTucker.fit(spark, t, PTuckerConfig(ranks = Array(2, 2), maxIters = 5, partitions = 2))
    }
    assert(e.getMessage.contains("iteration 1") && e.getMessage.contains("mode 1") &&
      e.getMessage.contains("Default"), e.getMessage)
    assert((sc.getPersistentRDDs.keySet -- before).isEmpty, "a failed fit left RDDs persisted")
    assertNoNewBroadcast(broadcasts, "a failed fit")
  }

  private val variants = Seq(PTuckerVariant.Default, PTuckerVariant.Cache, PTuckerVariant.Approx)

  /** Fits a 4×9×3 tensor holding one valid entry and `bad` with every
    * variant; each fit must throw an IllegalArgumentException whose message
    * contains `want`, and leave no RDD persisted.
    */
  private def assertRejected(bad: (Array[Int], Double), want: String): Unit = {
    val t = SparseTensor.fromEntries(spark, Array(4, 9, 3), Seq((Array(0, 0, 0), 1.0), bad))
    val sc = spark.sparkContext
    for (v <- variants) {
      val before = sc.getPersistentRDDs.keySet
      val e = intercept[IllegalArgumentException] {
        PTucker.fit(spark, t, PTuckerConfig(ranks = Array(1, 1, 1), partitions = 2, variant = v))
      }
      assert(e.getMessage.contains(want), s"$v: ${e.getMessage}")
      assert((sc.getPersistentRDDs.keySet -- before).isEmpty, s"$v left RDDs persisted")
    }
  }

  test("input validation: an index outside [0, dim) is rejected, naming mode, index and dim") {
    assertRejected((Array(1, 9, 2), 2.0), "mode 1: index 9 outside [0, 9)")
    assertRejected((Array(1, 2, -1), 2.0), "mode 2: index -1 outside [0, 3)")
  }

  test("input validation: a non-finite value is rejected, naming the entry") {
    assertRejected((Array(1, 2, 0), Double.NaN), "entry (1, 2, 0): value NaN is not finite")
    assertRejected((Array(3, 8, 2), Double.NegativeInfinity), "entry (3, 8, 2): value -Infinity is not finite")
  }

  test("fit leaves no RDD persisted, for every variant") {
    planted.nnz // the input's own cache is built before the snapshot
    val sc = spark.sparkContext
    for (v <- variants) {
      val before = sc.getPersistentRDDs.keySet
      val broadcasts = BroadcastProbe.liveIds(sc)
      PTucker.fit(spark, planted, baseConfig.copy(variant = v, maxIters = 2))
      // only new ids count: persisted RDDs are weakly held, so the cleaner
      // may drop unreachable ones of earlier suites meanwhile
      val leaked = sc.getPersistentRDDs.keySet -- before
      assert(leaked.isEmpty, s"$v left RDDs ${leaked.mkString(", ")} persisted")
      assertNoNewBroadcast(broadcasts, v.toString)
    }
  }

  /** The descriptions of the jobs that `body` submits, in job order. */
  private def jobDescriptions(body: => Any): Seq[String] = {
    val sc = spark.sparkContext
    val marker = "repro.test.fitJobs"
    val seen = mutable.ArrayBuffer.empty[(Int, String)]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty(marker) != null)
          seen.synchronized(seen += ((e.jobId, e.properties.getProperty("spark.job.description"))))
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(marker, "1")
    try body
    finally {
      sc.setLocalProperty(marker, null)
      ListenerProbe.drain(sc)
      sc.removeSparkListener(listener)
    }
    seen.synchronized(seen.sortBy(_._1).map(_._2).toList)
  }

  test("every fit job is tagged ptucker/i<k>/m<n>/<phase>, and the caller's description survives") {
    val sc = spark.sparkContext
    val iters = 2
    val setUp = Seq("ptucker/i0/m0/open", "ptucker/i0/m0/materialize")
    def modes(k: Int, phase: Int => Seq[String]) = (0 until 3).flatMap(n => s"ptucker/i$k/m$n/mode_update" +: phase(n))
    val want = Map[PTuckerVariant, Seq[String]](
      PTuckerVariant.Default -> (setUp ++ (1 to iters).flatMap(k => modes(k, _ => Nil))),
      PTuckerVariant.Approx -> (setUp ++ (1 to iters).flatMap(k => modes(k, _ => Nil))),
      PTuckerVariant.Cache -> (setUp ++ (1 to iters).flatMap(k => modes(k, n =>
        s"ptucker/i$k/m$n/materialize" +: (if (n == 2) Seq(s"ptucker/i$k/m$n/error_pass") else Nil)))))
    planted.nnz // the input's own cache is built outside the listened jobs
    sc.setJobDescription("caller")
    try {
      for (v <- variants) {
        val got = jobDescriptions(PTucker.fit(spark, planted, baseConfig.copy(variant = v, maxIters = iters)))
        assert(got == want(v), s"$v")
        assert(sc.getLocalProperty("spark.job.description") == "caller", s"$v")
      }
      assert(want(PTuckerVariant.Default).size == 2 + 3 * iters)
      assert(want(PTuckerVariant.Approx).size == 2 + 3 * iters)
      intercept[IllegalStateException] {
        PTucker.fit(spark, overflowTensor(), PTuckerConfig(ranks = Array(2, 2), maxIters = 5, partitions = 2))
      }
      assert(sc.getLocalProperty("spark.job.description") == "caller", "after a failed fit")
    } finally sc.setJobDescription(null)
  }

  test("two same-seed fits at T = 4 are bit-identical, for Default and Approx") {
    // Every sum over partitions (‖X‖, the Eq.-6 error, R(β)) is taken in
    // partition order, not in the order in which tasks finish.
    def bits(m: TuckerModel) = (
      m.history.map(s => (java.lang.Double.doubleToLongBits(s.error), java.lang.Double.doubleToLongBits(s.fit),
        s.coreNnz)),
      m.factors.map(_.data.map(java.lang.Double.doubleToLongBits).toSeq).toSeq,
      m.core.entries.map(e => (e.idx.toSeq, java.lang.Double.doubleToLongBits(e.value))).toSeq)
    for (v <- Seq(PTuckerVariant.Default, PTuckerVariant.Approx)) {
      val cfg = baseConfig.copy(variant = v, maxIters = 4)
      assert(bits(PTucker.fit(spark, planted, cfg)) == bits(PTucker.fit(spark, planted, cfg)), s"$v")
    }
  }

  /** A tensor of the given dims with `nnz` distinct uniform cells. */
  private def uniformTensor(dims: Array[Int], nnz: Int, seed: Int): SparseTensor = {
    val rng = new scala.util.Random(seed)
    val entries = Iterator.continually((dims.map(rng.nextInt), rng.nextDouble()))
      .distinctBy(_._1.toSeq).take(nnz).toSeq
    SparseTensor.fromEntries(spark, dims, entries)
  }

  test("the last mode's R(beta) equals the literal Eq. (14)") {
    val planted = plantedTensor(nnz = 120, seed = 11)
    val full3 = repro.tensor.CoreTensor.rand(Array(2, 2, 2), 99)
    val truncated = full3.truncate(Array.tabulate(8)(b => ((b * 5) % 8).toDouble), 3)
    val cases = Seq(
      // (name, tensor, core, T, whether the last mode has split rows)
      ("no split rows", planted, full3, 2, false),
      ("split rows", planted, full3, 16, true),
      ("truncated core", planted, truncated, 16, true),
      ("N = 2", uniformTensor(Array(9, 7), 40, 5), repro.tensor.CoreTensor.rand(Array(3, 2), 98), 2, false),
      ("N = 4", uniformTensor(Array(5, 4, 6, 3), 90, 6), repro.tensor.CoreTensor.rand(Array(2, 2, 3, 2), 97)
        .truncate(Array.tabulate(24)(b => ((b * 7) % 24).toDouble), 5), 4, true))
    for ((name, t, core, p, splits) <- cases) {
      val order = t.order
      val ranks = core.dims
      val entries = t.collectEntries()
      val factors = Array.tabulate(order)(n => DenseMatrix.rand(t.dims(n), ranks(n), 77 + n))
      val layout = new PTucker.BlockLayout(spark, t, p,
        PTuckerConfig(ranks = ranks, variant = PTuckerVariant.Approx, partitions = p))
      val got =
        try {
          layout.open(factors, core)
          val lastParts = layout.blocks.map(_(order - 1).parts.length).collect().sum
          assert((lastParts > 0) == splits, s"$name: $lastParts split-row parts in the last mode")
          val stats = layout.updateMode(1, order - 1, factors, core, rBeta = true)
          stats.rBeta.get
        } finally layout.close()

      // Eq. (6) with the updated factors, over a given set of cells.
      def sse(cells: Array[repro.tensor.CoreEntry]): Double =
        entries.map { case (idx, x) =>
          val pred = cells.map { e =>
            e.value * (0 until order).map(k => factors(k)(idx(k), e.idx(k))).product
          }.sum
          val d = x - pred
          d * d
        }.sum

      val full = sse(core.entries)
      assert(got.length == core.nnz, name)
      core.entries.zipWithIndex.foreach { case (cell, b) =>
        val want = full - sse(core.entries.filterNot(_ eq cell))
        assert(math.abs(got(b) - want) < 1e-8,
          s"$name: R(beta) mismatch at cell ${cell.idx.toSeq}: got ${got(b)} want $want")
      }
    }
  }

  /** The row placement as a priority queue of `(load, block)` over rows
    * sorted by size, then index: what `Placement` computes on arrays.
    */
  private def referencePlacement(counts: Array[Array[Long]], nnz: Long, T: Int): Seq[(Seq[Int], Seq[Seq[Int]])] = {
    val cap = math.max(1L, (nnz + 2L * T - 1) / (2L * T))
    counts.toSeq.map { c =>
      val home = new Array[Int](c.length)
      val rows = c.indices.filter(c(_) > 0)
      val parts = rows.map(i => math.min((c(i) + cap - 1) / cap, T.toLong).toInt)
      val size = rows.indices.map(r => c(rows(r)) / parts(r))
      val loads = mutable.PriorityQueue((0 until T).map(b => (0L, b)): _*)(Ordering[(Long, Int)].reverse)
      val split = mutable.ArrayBuffer.empty[Seq[Int]]
      rows.indices.sortBy(r => (-size(r), rows(r))).foreach { r =>
        val blocks = Seq.fill(parts(r)) {
          val (load, b) = loads.dequeue()
          loads.enqueue((load + size(r), b))
          b
        }
        home(rows(r)) = if (blocks.length == 1) blocks.head else { split += blocks; -split.length }
      }
      (home.toSeq, split.toSeq)
    }
  }

  test("Placement equals a reference placement on hot rows") {
    val t = hotRowTensor()
    val entries = t.collectEntries()
    val counts = t.dims.indices.map { n =>
      val c = new Array[Long](t.dims(n))
      entries.foreach { case (idx, _) => c(idx(n)) += 1 }
      c
    }.toArray
    for (p <- Seq(2, 4, 16)) {
      val got = PTucker.Placement(counts, entries.length.toLong, p)
      val want = referencePlacement(counts, entries.length.toLong, p)
      assert(got.home.indices.map(n => (got.home(n).toSeq, got.splits(n).toSeq.map(_.toSeq))) == want, s"T=$p")
      assert(want.exists(_._2.nonEmpty), s"T=$p: the tensor splits no row")
    }
  }
}
