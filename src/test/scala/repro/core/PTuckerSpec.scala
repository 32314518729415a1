package repro.core

import org.apache.logging.log4j.Level
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.Property
import org.apache.spark.{BroadcastProbe, ListenerProbe}
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.serializer.JavaSerializer
import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{FloatType, LongType, StructField, StructType}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TensorGen}
import repro.baselines.{SHotScan, TuckerCsf, TuckerWopt}
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
    for (p <- Seq(1, 2, 4, 16)) {
      val layout = new PTucker.BlockLayout(spark, t, p, baseConfig.copy(partitions = p))
      try {
        layout.open(Array.empty, null)
        val blocks = layout.blocks.collect()
        assert(blocks.length == p)
        (0 until 3).foreach { n =>
          val sizes = blocks.map(_(n).nnz.toLong)
          assert(sizes.sum == nnz, s"T=$p, mode $n: blocks hold ${sizes.sum} of $nnz entries")
          assert(sizes.forall(s => s == nnz / p || s == (nnz + p - 1) / p),
            s"T=$p, mode $n: block sizes ${sizes.mkString(", ")}")
          blocks.foreach { bs =>
            val b = bs(n)
            val ends = if (b.nnz == 0) Set.empty[Int] else Set(b.idx(n), b.idx((b.nnz - 1) * 3 + n))
            assert(b.parts.forall(ends.contains), s"T=$p, mode $n: a part inside a block, parts ${b.parts.mkString(", ")}")
          }
        }
        if (p == 1) assert(blocks.forall(_.forall(_.parts.isEmpty)), "a row is split at T = 1")
        else assert(blocks.exists(_(0).parts.nonEmpty), s"T=$p: no mode-0 row is split")
      } finally layout.close()
    }
  }

  /** The row blocks of `entries`, given in input order, at T blocks per
    * mode, built on the driver: mode `n`'s entries stably sorted by `i_n`,
    * so each row's keep their input order, and cut into T slices by rank,
    * slice `b` holding ranks `[⌊b·|Ω|/T⌋, ⌊(b+1)·|Ω|/T⌋)`. A row is split
    * when its entries fall in more than one slice. Each slice is ordered
    * within by [[RowBlocks.sortedBlock]].
    */
  private def referenceBlocks(entries: Array[(Array[Int], Double)], dims: Array[Int],
                              T: Int): Array[Array[RowBlocks.RowBlock]] = {
    val m = entries.length.toLong
    val slices = dims.indices.map { n =>
      val ranked = entries.sortBy(_._1(n)) // a stable sort
      (0 until T).map(b => ranked.slice((b * m / T).toInt, ((b + 1) * m / T).toInt))
    }
    Array.tabulate(T, dims.length) { (b, n) =>
      val mine = slices(n)(b)
      val elsewhere = slices(n).indices.filter(_ != b).flatMap(slices(n)(_)).map(_._1(n)).toSet
      RowBlocks.sortedBlock(n, dims(n), dims.length, mine.flatMap(_._1).toArray, mine.map(_._2).toArray,
        elsewhere.contains)
    }
  }

  /** Each block's entries as (indices, values, split-row parts). */
  private def contents(blocks: Array[Array[RowBlocks.RowBlock]]) =
    blocks.toSeq.map(_.toSeq.map(b => (b.idx.toSeq, b.values.toSeq, b.parts.toSeq)))

  test("the row blocks equal a driver-side build from the collected entries") {
    val hot = hotRowTensor()
    val hotRows = hot.collectEntries().toSeq.map { case (idx, v) => Row.fromSeq(idx.toSeq :+ v) }
    def inPartitions(k: Int) =
      SparseTensor(hot.dims, spark.createDataFrame(spark.sparkContext.parallelize(hotRows, k), SparseTensor.schema(3)))
    val inputs = Seq(1, 3, 7).map(k => (s"hot rows in $k partitions", inPartitions(k))) ++
      Seq(("hot rows from fromEntries", hot), ("planted", planted))
    for ((name, t) <- inputs; p <- Seq(1, 2, 4, 16)) {
      val want = referenceBlocks(t.collectEntries(), t.dims, p)
      if (p >= 2) assert(want.exists(_.exists(_.parts.nonEmpty)), s"$name, T=$p: no split row")
      val layout = new PTucker.BlockLayout(spark, t, p, baseConfig.copy(partitions = p))
      try {
        layout.open(Array.empty, null)
        assert(contents(layout.blocks.collect()) == contents(want), s"$name, T=$p")
      } finally layout.close()
    }
  }

  test("a coordinate listed twice is two observations, also where its copies fall in different parts") {
    // Row 0 of mode 0 holds 135 of the hot-row tensor's 521 entries. Its
    // first entry is listed again, with another value, at the end of the
    // input, so the copies rank first and last in that row: at T = 4 (130
    // or 131 entries per block) in blocks 0 and 1.
    val hot = hotRowTensor().collectEntries()
    val first = hot.find(_._1(0) == 0).get._1
    val entries = hot :+ ((first, 0.5))
    val t = SparseTensor.fromEntries(spark, Array(12, 20, 20), entries.toSeq).persisted()
    for (p <- Seq(1, 4)) {
      val layout = new PTucker.BlockLayout(spark, t, p, baseConfig.copy(partitions = p))
      val got =
        try {
          layout.open(Array.empty, null)
          layout.blocks.collect()
        } finally layout.close()
      assert(contents(got) == contents(referenceBlocks(entries, t.dims, p)), s"T=$p")
      val holders = got.indices.filter { b =>
        val b0 = got(b)(0)
        (0 until b0.nnz).exists(e => (0 until 3).forall(k => b0.idx(e * 3 + k) == first(k)))
      }
      assert(holders.size == (if (p == 1) 1 else 2), s"T=$p: the copies are in mode-0 blocks ${holders.mkString(", ")}")
      for (v <- Seq(PTuckerVariant.Default, PTuckerVariant.Cache)) {
        val m = PTucker.fit(spark, t, baseConfig.copy(variant = v, partitions = p, maxIters = 4, orthogonalize = false))
        val exact = math.sqrt(CellList.squaredError(entries.toSeq, TuckerKernels.factorData(m.factors),
          TuckerKernels.coreCells(m.core)))
        val recorded = m.history.last.error
        assert(relDiff(exact, recorded) <= 1e-9, s"$v, T=$p: recorded $recorded vs exact $exact")
      }
    }
    t.unpersist()
  }

  test("the row blocks' norm is the input partitions' sums of x², added in partition order") {
    def inPartitions(t: SparseTensor, k: Int) = {
      val rows = t.collectEntries().toSeq.map { case (idx, v) => Row.fromSeq(idx.toSeq :+ v) }
      SparseTensor(t.dims, spark.createDataFrame(spark.sparkContext.parallelize(rows, k), SparseTensor.schema(3)))
    }
    for ((name, t) <- Seq(("hot rows in 7 partitions", inPartitions(hotRowTensor(), 7)),
                          ("planted in 3 partitions", inPartitions(planted, 3)))) {
      val sums = t.df.rdd.mapPartitions { rs =>
        var s = 0.0
        rs.foreach { r => val x = r.getDouble(3); s += x * x }
        Iterator.single(s)
      }.collect()
      assert(sums.length > 1, s"$name: one input partition")
      val want = math.sqrt(sums.foldLeft(0.0)(_ + _))
      for (p <- Seq(1, 4, 16)) {
        val blocks = RowBlocks.open(t, p, "test")
        val got = try blocks.norm finally blocks.close()
        assert(java.lang.Double.doubleToLongBits(got) == java.lang.Double.doubleToLongBits(want),
          s"$name, T=$p: $got vs $want")
      }
    }
  }

  test("the row blocks are locally checkpointed: a mode-update task does not carry the input's lineage") {
    // Spark serializes a task's binary and partition with Java serialization
    val ser = new JavaSerializer(spark.sparkContext.getConf).newInstance()
    for ((name, t) <- Seq(("planted", planted), ("fromEntries", hotRowTensor()))) {
      val layout = new PTucker.BlockLayout(spark, t, 4, baseConfig)
      try {
        layout.open(Array.empty, null)
        val blocks = layout.blocks
        // what a SolveBlocks task ships: its binary (the RDD and the
        // function) and its partition
        val binary = ser.serialize((blocks, new PTucker.SolveBlocks(0, 2, 0.01, true, null)): AnyRef).limit()
        val partition = ser.serialize(blocks.partitions(0)).limit()
        assert(binary + partition < 8192, s"$name: task binary $binary bytes, partition $partition bytes")
      } finally layout.close()
    }
  }

  test("the recorded Eq.-6 error is the exact error of the returned model") {
    // The last mode update sums (x - a·δ)² with the final factors; it must
    // equal a separate pass, also near fit = 1 where Σx² - 2a·c + aᵀBa cancels.
    val noisy = TensorGen.lowRank(spark, dims = Array(10, 9, 8), ranks = Array(2, 2, 2),
      nnz = 500, noiseSd = 0.1, seed = 3).persisted()
    // At T = 16 every row of the planted tensors is split over blocks (26
    // to 53 entries per row against 21 or 22 per block), so the last mode's
    // error comes from the split rows' parts.
    for ((t, name) <- Seq((noisy, "noisy"), (planted, "noise-free"));
         v <- Seq(PTuckerVariant.Default, PTuckerVariant.Approx); p <- Seq(4, 16)) {
      val m = PTucker.fit(spark, t, baseConfig.copy(variant = v, orthogonalize = false, partitions = p))
      // Approx records the error before its truncation; with |G| settled at
      // 4 cells the last truncation drops nothing, so the returned core is
      // the one the error was taken with.
      if (v == PTuckerVariant.Approx)
        assert(m.history.last.coreNnz == m.history.init.last.coreNnz, s"$name: core still shrinking")
      else if (name == "noise-free") assert(m.history.last.fit > 0.99, s"fit ${m.history.last.fit}")
      val exact = math.sqrt(CellList.squaredError(t.collectEntries().toSeq, TuckerKernels.factorData(m.factors),
        TuckerKernels.coreCells(m.core)))
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

  /** Every method that reads its input through the checked reader, with
    * ranks (1, 1, 1) and T = 2.
    */
  private val checkedFits: Seq[(String, SparseTensor => Any)] =
    variants.map(v => v.toString -> ((t: SparseTensor) =>
      PTucker.fit(spark, t, PTuckerConfig(ranks = Array(1, 1, 1), partitions = 2, variant = v)))) ++ Seq(
      "S-HOT" -> ((t: SparseTensor) => SHotScan.fit(spark, t, Array(1, 1, 1), maxIters = 1, partitions = 2)),
      "CSF" -> ((t: SparseTensor) => TuckerCsf.fit(spark, t, Array(1, 1, 1), maxIters = 1, partitions = 2)),
      "wOPT" -> ((t: SparseTensor) => TuckerWopt.fit(spark, t, Array(1, 1, 1), maxIters = 1)))

  /** The evaluations of a model of the 4×9×3 tensors below, with ranks
    * (1, 1, 1) and at most 2 tasks: they read the tensor through the same
    * checked reader as the fits.
    */
  private lazy val evaluations: Seq[(String, SparseTensor => Any)] = {
    val dims = Array(4, 9, 3)
    val m = TuckerModel(dims, Array(1, 1, 1), dims.map(DenseMatrix.rand(_, 1, 5)),
      repro.tensor.CoreTensor.rand(Array(1, 1, 1), 6), Vector.empty)
    Seq("reconstructionError" -> ((t: SparseTensor) => m.reconstructionError(spark, t, partitions = 2)),
      "testRmse" -> ((t: SparseTensor) => m.testRmse(spark, t, partitions = 2)))
  }

  /** A 4×9×3 tensor holding one valid entry and `bad`. */
  private def withEntry(bad: (Array[Int], Double)): SparseTensor =
    SparseTensor.fromEntries(spark, Array(4, 9, 3), Seq((Array(0, 0, 0), 1.0), bad))

  /** Bad inputs, each with the message its rejection must contain. */
  private def badIndices: Seq[(SparseTensor, String)] = Seq(
    withEntry((Array(1, 9, 2), 2.0)) -> "mode 1: index 9 outside [0, 9)",
    withEntry((Array(1, 2, -1), 2.0)) -> "mode 2: index -1 outside [0, 3)",
    withEntry((Array(4, 2, 1), 2.0)) -> "mode 0: index 4 outside [0, 4)")

  private def badValues: Seq[(SparseTensor, String)] = Seq(
    withEntry((Array(1, 2, 0), Double.NaN)) -> "entry (1, 2, 0): value NaN is not finite",
    withEntry((Array(3, 8, 2), Double.NegativeInfinity)) -> "entry (3, 8, 2): value -Infinity is not finite",
    withEntry((Array(2, 5, 1), Double.PositiveInfinity)) -> "entry (2, 5, 1): value Infinity is not finite")

  /** A 4×9×3 tensor of two entries, in a DataFrame of the given schema. */
  private def tensorOf(schema: StructType, rows: Row*): SparseTensor =
    SparseTensor(Array(4, 9, 3), spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema))

  private def badColumns: Seq[(SparseTensor, String)] = {
    val long = StructType(SparseTensor.schema(3).fields.updated(1, StructField("i1", LongType, nullable = false)))
    val floatValue = StructType(SparseTensor.schema(3).fields.updated(3, StructField("value", FloatType)))
    val short = StructType(SparseTensor.schema(3).fields.take(3))
    Seq(tensorOf(long, Row(0, 0L, 0, 1.0), Row(1, 2L, 0, 2.0)) -> "column 1 (i1) has type LongType, not IntegerType",
      tensorOf(floatValue, Row(0, 0, 0, 1.0f)) -> "column 3 (value) has type FloatType, not DoubleType",
      tensorOf(short, Row(0, 0, 0)) -> "an order-3 tensor has 4 columns")
  }

  /** Every method reads the input as InternalRows, which read a null int as 0. */
  private def nullFields: Seq[(SparseTensor, String)] = {
    val nullable = StructType(SparseTensor.schema(3).fields.map(_.copy(nullable = true)))
    Seq(tensorOf(nullable, Row(0, 0, 0, 1.0), Row(1, 2, 0, null)) -> "entry (1, 2, 0): value is null",
      tensorOf(nullable, Row(0, 0, 0, 1.0), Row(1, null, 0, 2.0)) -> "entry (1, null, 0): mode 1 index is null")
  }

  /** Runs each of `methods` on each bad input; each must throw an
    * IllegalArgumentException whose message contains the input's `want`,
    * and leave no RDD persisted and no broadcast alive.
    */
  private def assertRejectedInputs(cases: Seq[(SparseTensor, String)], methods: Seq[(String, SparseTensor => Any)]): Unit = {
    val sc = spark.sparkContext
    for ((t, want) <- cases; (name, run) <- methods) {
      val before = sc.getPersistentRDDs.keySet
      val broadcasts = BroadcastProbe.liveIds(sc)
      val e = intercept[IllegalArgumentException](run(t))
      assert(e.getMessage.contains(want), s"$name: ${e.getMessage}")
      assert((sc.getPersistentRDDs.keySet -- before).isEmpty, s"$name left RDDs persisted")
      assertNoNewBroadcast(broadcasts, name)
    }
  }

  test("input validation: an index outside [0, dim) is rejected, naming mode, index and dim") {
    assertRejectedInputs(badIndices, checkedFits)
  }

  test("input validation: a non-finite value is rejected, naming the entry") {
    assertRejectedInputs(badValues, checkedFits)
  }

  test("input validation: a column of another type is rejected by position, naming the column and its type") {
    assertRejectedInputs(badColumns, checkedFits)
  }

  test("input validation: a null field is rejected, naming the entry") {
    assertRejectedInputs(nullFields, checkedFits)
  }

  test("input validation: an empty tensor is rejected") {
    val empty = SparseTensor(Array(4, 9, 3), spark.createDataFrame(
      spark.sparkContext.parallelize(Seq.empty[Row], 2), SparseTensor.schema(3)))
    assertRejectedInputs(Seq(empty -> "empty tensor"), checkedFits)
  }

  test("evaluation rejects a bad held-out tensor through the checked reader, leaving nothing behind") {
    assertRejectedInputs(badIndices ++ badValues ++ badColumns ++ nullFields, evaluations)
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

  /** The descriptions of the jobs that `body` submits, in job order, and
    * the shuffle bytes and records that each stage they ran wrote.
    */
  private def fitJobs(body: => Any): (Seq[String], Seq[(Long, Long)]) = {
    val sc = spark.sparkContext
    val marker = "repro.test.fitJobs"
    val seen = mutable.ArrayBuffer.empty[(Int, String)]
    val stageIds = mutable.Set.empty[Int]
    val stages = mutable.ArrayBuffer.empty[(Long, Long)]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty(marker) != null)
          seen.synchronized {
            seen += ((e.jobId, e.properties.getProperty("spark.job.description")))
            stageIds ++= e.stageIds
          }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        seen.synchronized {
          if (stageIds.contains(e.stageInfo.stageId)) {
            val w = e.stageInfo.taskMetrics.shuffleWriteMetrics
            stages += ((w.bytesWritten, w.recordsWritten))
          }
        }
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(marker, "1")
    try body
    finally {
      sc.setLocalProperty(marker, null)
      ListenerProbe.drain(sc)
      sc.removeSparkListener(listener)
    }
    seen.synchronized((seen.sortBy(_._1).map(_._2).toList, stages.toList))
  }

  test("every fit job is tagged ptucker/i<k>/m<n>/<phase>, and the caller's description survives") {
    val sc = spark.sparkContext
    val iters = 2
    // Default and Approx open the row blocks in one job; Cache reads its
    // entries, then builds its Pres table.
    val open = Seq("ptucker/i0/m0/open")
    def modes(k: Int, phase: Int => Seq[String]) = (0 until 3).flatMap(n => s"ptucker/i$k/m$n/mode_update" +: phase(n))
    val want = Map[PTuckerVariant, Seq[String]](
      PTuckerVariant.Default -> (open ++ (1 to iters).flatMap(k => modes(k, _ => Nil))),
      PTuckerVariant.Approx -> (open ++ (1 to iters).flatMap(k => modes(k, _ => Nil))),
      PTuckerVariant.Cache -> (open ++ Seq("ptucker/i0/m0/materialize") ++ (1 to iters).flatMap(k => modes(k, n =>
        s"ptucker/i$k/m$n/materialize" +: (if (n == 2) Seq(s"ptucker/i$k/m$n/error_pass") else Nil)))))
    planted.nnz // the input's own cache is built outside the listened jobs
    sc.setJobDescription("caller")
    try {
      for (v <- variants) {
        val (got, stages) = fitJobs(PTucker.fit(spark, planted, baseConfig.copy(variant = v, maxIters = iters)))
        assert(got == want(v), s"$v")
        assert(sc.getLocalProperty("spark.job.description") == "caller", s"$v")
        // Default and Approx: one stage per job, none of which shuffles.
        if (v != PTuckerVariant.Cache) {
          assert(stages.size == 1 + 3 * iters, s"$v: ${stages.size} stages")
          assert(stages.forall(_ == ((0L, 0L))), s"$v: shuffle bytes and records written ${stages.mkString(", ")}")
        }
      }
      assert(want(PTuckerVariant.Default).size == 1 + 3 * iters)
      assert(want(PTuckerVariant.Approx).size == 1 + 3 * iters)
      intercept[IllegalStateException] {
        PTucker.fit(spark, overflowTensor(), PTuckerConfig(ranks = Array(2, 2), maxIters = 5, partitions = 2))
      }
      assert(sc.getLocalProperty("spark.job.description") == "caller", "after a failed fit")
    } finally sc.setJobDescription(null)
  }

  test("an S-HOT fit runs 2 + 2N·iters tagged jobs, none of which shuffles") {
    val iters = 2
    val want = Seq("hooi/i0/m0/open") ++
      (1 to iters).flatMap(k => (0 until 3).flatMap(n => Seq(s"hooi/i$k/m$n/gram", s"hooi/i$k/m$n/project"))) :+
      s"hooi/i$iters/m0/core"
    planted.nnz // the input's own cache is built outside the listened jobs
    val (got, stages) = fitJobs(SHotScan.fit(spark, planted, Array(2, 2, 2), maxIters = iters, partitions = 4))
    assert(got == want)
    assert(want.size == 2 + 2 * 3 * iters)
    assert(stages.size == want.size, s"${stages.size} stages")
    assert(stages.forall(_ == ((0L, 0L))), s"shuffle bytes and records written ${stages.mkString(", ")}")
  }

  test("an evaluation is one job tagged model/i0/m0/error that shuffles nothing, and repeats bit for bit") {
    val (_, test) = planted.split(0.9)
    planted.nnz // the input's own cache is built outside the listened jobs
    val m = defaultModel
    for ((name, eval) <- Seq[(String, () => Double)](
           "testRmse" -> (() => m.testRmse(spark, test, partitions = 4)),
           "reconstructionError" -> (() => m.reconstructionError(spark, planted, partitions = 4)))) {
      var first = 0.0
      val (got, stages) = fitJobs { first = eval() }
      assert(got == Seq("model/i0/m0/error"), name)
      assert(stages == Seq((0L, 0L)), s"$name: stages' shuffle bytes and records ${stages.mkString(", ")}")
      val second = eval()
      assert(java.lang.Double.doubleToLongBits(first) == java.lang.Double.doubleToLongBits(second),
        s"$name: $first vs $second")
    }
  }

  /** The WARN (or worse) events that loggers named after an RDD class log
    * while `body` runs, as `logger: message`.
    */
  private def rddWarnings(body: => Any): Seq[String] = {
    def isRdd(name: String) =
      try classOf[RDD[_]].isAssignableFrom(Class.forName(name, false, getClass.getClassLoader))
      catch { case _: ClassNotFoundException => false }
    val events = mutable.ArrayBuffer.empty[String]
    val capture = new AbstractAppender("rddWarnings", null, null, true, Property.EMPTY_ARRAY) {
      def append(e: LogEvent): Unit =
        if (e.getLevel.isMoreSpecificThan(Level.WARN) && isRdd(e.getLoggerName))
          events.synchronized(events += s"${e.getLoggerName}: ${e.getMessage.getFormattedMessage}")
    }
    val ctx = LoggerContext.getContext(false)
    val root = ctx.getConfiguration.getRootLogger
    capture.start()
    root.addAppender(capture, Level.WARN, null)
    ctx.updateLoggers()
    try body
    finally {
      root.removeAppender(capture.getName)
      ctx.updateLoggers()
      capture.stop()
    }
    events.synchronized(events.toList)
  }

  test("a Default fit and an S-HOT fit log no WARN from their RDDs") {
    val sc = spark.sparkContext
    // The capture sees the WARN that RDD.unpersist logs for a locally checkpointed RDD.
    val control = rddWarnings {
      val r = sc.parallelize(1 to 4, 2).persist()
      r.localCheckpoint()
      r.count()
      r.unpersist()
    }
    assert(control.exists(_.contains("locally checkpointed")), control.mkString("; "))
    val fits = Seq[(String, () => Any)](
      "Default" -> (() => PTucker.fit(spark, planted, baseConfig.copy(maxIters = 2))),
      "S-HOT" -> (() => SHotScan.fit(spark, planted, Array(2, 2, 2), maxIters = 2, partitions = 4)))
    for ((name, fit) <- fits) {
      val warnings = rddWarnings(fit())
      assert(warnings.isEmpty, s"$name: ${warnings.mkString("; ")}")
    }
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

  /** 820 entries whose mode-2 rows hold 80, 180 and 560 of them. At T = 2
    * block 0 holds rows 0 and 1 and the first 150 entries of row 2, and
    * block 1 row 2's other 410, so in the last mode a whole run (row 1) and
    * a part each cross a multiple of [[CoreTree.Lanes]] entries.
    */
  private def straddleTensor(): SparseTensor = {
    val rng = new scala.util.Random(33)
    val entries = Seq(0 -> 80, 1 -> 180, 2 -> 560).flatMap { case (i2, count) =>
      rng.shuffle((0 until 30 * 24).toList).take(count).map(p => (Array(p / 24, p % 24, i2), rng.nextDouble()))
    }
    SparseTensor.fromEntries(spark, Array(30, 24, 3), entries)
  }

  test("a run and a split row's part that straddle δ chunks give the literal row solve and Eq. (6)") {
    val t = straddleTensor()
    val L = CoreTree.Lanes
    val ranks = Array(2, 3, 2)
    val lambda = 0.01
    val factors = Array.tabulate(3)(n => DenseMatrix.rand(t.dims(n), ranks(n), 31 + n))
    val core = repro.tensor.CoreTensor.rand(ranks, 32)
    val layout = new PTucker.BlockLayout(spark, t, 2, PTuckerConfig(ranks = ranks, lambda = lambda, partitions = 2))
    val sse =
      try {
        layout.open(factors, core)
        // (first entry, end, whether a part) of every run in the last mode
        val runs = layout.blocks.map { bs =>
          val b = bs(2)
          val starts = (0 until b.nnz).filter(e => e == 0 || b.idx(e * 3 + 2) != b.idx((e - 1) * 3 + 2))
          starts.zip(starts.tail :+ b.nnz).map { case (a, z) => (a, z, b.isPart(b.idx(a * 3 + 2))) }
        }.collect().flatten
        for (part <- Seq(false, true))
          assert(runs.exists { case (a, z, p) => p == part && a / L != (z - 1) / L },
            s"no ${if (part) "part" else "whole run"} crosses a chunk: ${runs.mkString(", ")}")
        layout.updateMode(1, 2, factors, core, rBeta = false).sse
      } finally layout.close()

    // The literal normal equations (Eq. 10-13) of each mode-2 row, from the
    // cell list; mode 2's δ does not read A^(2), which the update replaced.
    val fd = TuckerKernels.factorData(factors)
    val cells = TuckerKernels.coreCells(core)
    val entries = t.collectEntries()
    for (i <- 0 until 3) {
      val b = DenseMatrix.zeros(2, 2)
      val c = new Array[Double](2)
      entries.filter(_._1(2) == i).foreach { case (idx, x) =>
        val d = CellList.delta(idx, 2, fd, cells)
        for (p <- 0 until 2; q <- 0 until 2) b(p, q) += d(p) * d(q)
        for (p <- 0 until 2) c(p) += x * d(p)
      }
      for (p <- 0 until 2) b(p, p) += lambda
      val want = DenseMatrix.solve(b, c)
      for (j <- 0 until 2)
        assert(relDiff(want(j), factors(2)(i, j)) <= 1e-9, s"row $i: ${factors(2)(i, j)} vs ${want(j)}")
    }
    val exact = CellList.squaredError(entries.toSeq, fd, cells)
    assert(relDiff(exact, sse) <= 1e-9, s"SSE $sse vs exact $exact")
  }

  test("the last mode's R(beta) equals the literal Eq. (14)") {
    val planted = plantedTensor(nnz = 120, seed = 11)
    val full3 = repro.tensor.CoreTensor.rand(Array(2, 2, 2), 99)
    val truncated = full3.truncate(Array.tabulate(8)(b => ((b * 5) % 8).toDouble), 3)
    val cases = Seq(
      // (name, tensor, core, T, whether the last mode has split rows)
      ("no split rows", planted, full3, 1, false),
      ("split rows", planted, full3, 16, true),
      ("truncated core", planted, truncated, 16, true),
      ("runs straddle δ chunks", straddleTensor(), repro.tensor.CoreTensor.rand(Array(2, 3, 2), 96), 2, true),
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
}
