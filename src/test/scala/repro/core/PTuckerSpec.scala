package repro.core

import org.apache.spark.BroadcastProbe
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TensorGen}
import repro.linalg.DenseMatrix
import repro.tensor.SparseTensor

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
    // the same seed gives an identical model
    val a = PTucker.fit(spark, planted, baseConfig.copy(maxIters = 4))
    val b = PTucker.fit(spark, planted, baseConfig.copy(maxIters = 4))
    assert(a.history.map(_.error) == b.history.map(_.error))
    assert(a.factors.zip(b.factors).forall { case (x, y) => x.data.sameElements(y.data) })
    assert(a.core.entries.map(_.value).sameElements(b.core.entries.map(_.value)))
  }

  test("rows with many entries are split, so that no block holds much more than its share") {
    val t = hotRowTensor()
    val nnz = t.nnz
    for (p <- Seq(2, 4, 16)) {
      val layout = new PTucker.BlockLayout(spark, t, p, baseConfig.copy(partitions = p))
      try {
        layout.open(Array.empty, null)
        (0 until 3).foreach { n =>
          val sizes = layout.modeBlocks(n).map(_.nnz.toLong).collect()
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

  test("computeRBeta matches the literal Eq. (14) error difference") {
    val t = plantedTensor(nnz = 120, seed = 11)
    val entries = t.collectEntries()
    val factors = Array.tabulate(3)(n => DenseMatrix.rand(t.dims(n), 2, 77 + n))
    val core = repro.tensor.CoreTensor.rand(Array(2, 2, 2), 99)
    val layout = new PTucker.BlockLayout(spark, t, 2, PTuckerConfig(ranks = Array(2, 2, 2)))
    val got =
      try {
        layout.open(factors, core)
        PTucker.computeRBeta(spark, layout.modeBlocks(0), factors, core)
      } finally layout.close()

    def sse(cells: Array[repro.tensor.CoreEntry]): Double =
      entries.map { case (idx, x) =>
        val pred = cells.map { e =>
          e.value * (0 until 3).map(k => factors(k)(idx(k), e.idx(k))).product
        }.sum
        val d = x - pred
        d * d
      }.sum

    val full = sse(core.entries)
    core.entries.zipWithIndex.foreach { case (cell, b) =>
      val without = sse(core.entries.filterNot(_ eq cell))
      val want = full - without
      assert(math.abs(got(b) - want) < 1e-8,
        s"R(beta) mismatch at cell ${cell.idx.toSeq}: got ${got(b)} want $want")
    }
  }
}
