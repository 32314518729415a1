package repro.core

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

  test("partition count does not change the result materially") {
    val m1 = PTucker.fit(spark, planted, baseConfig.copy(partitions = 1, maxIters = 4))
    val m8 = PTucker.fit(spark, planted, baseConfig.copy(partitions = 8, maxIters = 4))
    val e1 = m1.history.last.error
    val e8 = m8.history.last.error
    assert(math.abs(e1 - e8) < 1e-4 * math.max(1.0, e1), s"$e1 vs $e8")
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

  test("a failed row solve fails the fit, naming variant, iteration and mode") {
    // J = 2: mode 1's B + λI is all Inf, so its second Cholesky pivot is NaN.
    val t = overflowTensor()
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val e = intercept[IllegalStateException] {
      PTucker.fit(spark, t, PTuckerConfig(ranks = Array(2, 2), maxIters = 5, partitions = 2))
    }
    assert(e.getMessage.contains("iteration 1") && e.getMessage.contains("mode 1") &&
      e.getMessage.contains("Default"), e.getMessage)
    assert((sc.getPersistentRDDs.keySet -- before).isEmpty, "a failed fit left RDDs persisted")
  }

  test("fit leaves no RDD persisted, for every variant") {
    planted.nnz // the input's own cache is built before the snapshot
    val sc = spark.sparkContext
    for (v <- Seq(PTuckerVariant.Default, PTuckerVariant.Cache, PTuckerVariant.Approx)) {
      val before = sc.getPersistentRDDs.keySet
      PTucker.fit(spark, planted, baseConfig.copy(variant = v, maxIters = 2))
      // only new ids count: persisted RDDs are weakly held, so the cleaner
      // may drop unreachable ones of earlier suites meanwhile
      val leaked = sc.getPersistentRDDs.keySet -- before
      assert(leaked.isEmpty, s"$v left RDDs ${leaked.mkString(", ")} persisted")
    }
  }

  test("computeRBeta matches the literal Eq. (14) error difference") {
    val t = plantedTensor(nnz = 120, seed = 11)
    val entries = t.collectEntries()
    val factors = Array.tabulate(3)(n => DenseMatrix.rand(t.dims(n), 2, 77 + n))
    val core = repro.tensor.CoreTensor.rand(Array(2, 2, 2), 99)
    val rdd = t.entriesRdd(2)
    val got = PTucker.computeRBeta(spark, rdd, factors, core)

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
