package repro.baselines

import org.apache.spark.BroadcastProbe
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TensorGen}
import repro.core.RowBlocks
import repro.linalg.DenseMatrix
import repro.tensor.{DenseTensor, SparseTensor}

/** S-HOT must compute the same math as dense HOOI (both are Algorithm 1 with
  * zeros for missing entries) — only the evaluation strategy differs.
  */
class SHotScanSpec extends SparkSpec {

  private def subspaceDistance(a: DenseMatrix, b: DenseMatrix): Double =
    (a * a.transpose).maxAbsDiff(b * b.transpose)

  private lazy val tensor: SparseTensor =
    TensorGen.uniform(spark, Array(12, 10, 8), 300, seed = 2).persisted()

  test("factor subspaces match dense HOOI after the same number of sweeps") {
    val dense = DenseTensor.fromEntries(tensor.dims, tensor.collectEntries().toIndexedSeq)
    val hooi = TuckerHooi.fitDense(dense, Array(2, 2, 2), maxIters = 5, seed = 17)
    val shot = SHotScan.fit(spark, tensor, Array(2, 2, 2), maxIters = 5, partitions = 3, seed = 17)
    for (n <- 0 until 3) {
      val d = subspaceDistance(hooi.factors(n), shot.factors(n))
      assert(d < 1e-6, s"mode-$n subspace distance $d")
    }
  }

  test("core matches dense HOOI contraction") {
    val dense = DenseTensor.fromEntries(tensor.dims, tensor.collectEntries().toIndexedSeq)
    val shot = SHotScan.fit(spark, tensor, Array(2, 2, 2), maxIters = 4, partitions = 2, seed = 17)
    val direct = TuckerHooi.coreOf(dense, shot.factors)
    assert(shot.core.toDense.maxAbsDiff(direct) < 1e-8)
  }

  test("factors are column-orthonormal") {
    val shot = SHotScan.fit(spark, tensor, Array(3, 3, 3), maxIters = 2, partitions = 2)
    shot.factors.foreach(f => assert(f.gram.maxAbsDiff(DenseMatrix.eye(f.cols)) < 1e-8))
  }

  test("accumulateKron equals an explicit Kronecker product") {
    // mode 0 is the target, so its factor is not read
    val f = Array((2, Array(9.0, 9.0)), (3, Array(0.0, 0.0, 0.0, 1.0, 2.0, 3.0)), (2, Array(4.0, 5.0)))
    val idx = Array(7, 7, 0, 1, 0) // the entry (0, 1, 0) at offset 2
    val acc = new Array[Double](6)
    HooiCommon.accumulateKron(acc, idx, 2, 2.0, 0, f)
    // layout: first non-target mode fastest → index = j1 + 3*j2
    for (j1 <- 0 until 3; j2 <- 0 until 2) {
      val want = 2.0 * f(1)._2(3 + j1) * f(2)._2(j2)
      assert(math.abs(acc(j1 + 3 * j2) - want) < 1e-12)
    }
  }

  test("the core job equals the literal definition") {
    val t = TensorGen.uniform(spark, Array(5, 4, 3), 30, seed = 3)
    val factors = Array.tabulate(3)(n => DenseMatrix.rand(t.dims(n), 2, 40 + n))
    val blocks = RowBlocks.open(t, 2, "test")
    val core =
      try HooiCommon.coreOf(blocks.rdd, 1, factors, Array(2, 2, 2))
      finally blocks.close()
    val entries = t.collectEntries()
    core.entries.foreach { cell =>
      val want = entries.map { case (idx, x) =>
        x * (0 until 3).map(k => factors(k)(idx(k), cell.idx(k))).product
      }.sum
      assert(math.abs(cell.value - want) < 1e-10)
    }
  }

  /** Rows 0-2 of mode 0 hold most of the entries (135, 121 and 145 of
    * 521), so at T = 4 (130 or 131 entries per block) rows 0 and 2 cross a
    * block boundary and are split.
    */
  private def hotRowTensor(): SparseTensor = {
    val rng = new scala.util.Random(21)
    val entries = (0 until 600).map { k =>
      val i0 = if (k % 5 != 0) rng.nextInt(3) else 3 + rng.nextInt(9)
      (Array(i0, rng.nextInt(20), rng.nextInt(20)), rng.nextDouble())
    }.distinctBy(_._1.toSeq)
    SparseTensor.fromEntries(spark, Array(12, 20, 20), entries)
  }

  test("S-HOT and CSF agree with dense HOOI and each other at T = 1 and T = 4, also on split rows") {
    val t = hotRowTensor().persisted()
    val ranks = Array(2, 2, 2)
    val split = RowBlocks.open(t, 4, "test")
    try assert(split.rdd.map(_(0).parts.length).collect().sum > 0, "no mode-0 row is split at T = 4")
    finally split.close()
    val dense = DenseTensor.fromEntries(t.dims, t.collectEntries().toIndexedSeq)
    val hooi = TuckerHooi.fitDense(dense, ranks, maxIters = 4, seed = 17)
    val models = for (p <- Seq(1, 4); (name, fit) <- Seq("S-HOT" -> SHotScan.fit _, "CSF" -> TuckerCsf.fit _))
      yield s"$name, T=$p" -> fit(spark, t, ranks, 4, p, 17)
    for ((name, m) <- models) {
      for (n <- 0 until 3) {
        val d = subspaceDistance(hooi.factors(n), m.factors(n))
        assert(d < 1e-6, s"$name: mode-$n subspace distance $d to HOOI")
        val e = subspaceDistance(models.head._2.factors(n), m.factors(n))
        assert(e < 1e-6, s"$name: mode-$n subspace distance $e to ${models.head._1}")
      }
      assert(m.core.toDense.maxAbsDiff(TuckerHooi.coreOf(dense, m.factors)) < 1e-8, s"$name: core")
    }
    t.unpersist()
  }

  test("a failing S-HOT or CSF fit leaves no RDD persisted") {
    tensor.nnz // the input's own cache is built before the snapshot
    val sc = spark.sparkContext
    val fits = Seq[(String, () => Unit)](
      "S-HOT" -> (() => SHotScan.fit(spark, tensor, Array(3, 1, 1), maxIters = 1, partitions = 2)),
      "CSF" -> (() => TuckerCsf.fit(spark, tensor, Array(3, 1, 1), maxIters = 1, partitions = 2)))
    for ((name, fit) <- fits) {
      val before = sc.getPersistentRDDs.keySet
      val broadcasts = BroadcastProbe.liveIds(sc)
      // mode 0: rank 3 > L = J_1·J_2 = 1 fails the mode update's check,
      // after the row blocks are built
      intercept[IllegalArgumentException] { fit() }
      val leaked = sc.getPersistentRDDs.keySet -- before
      assert(leaked.isEmpty, s"$name left RDDs ${leaked.mkString(", ")} persisted")
      eventually(timeout(10.seconds), interval(50.millis)) {
        val live = BroadcastProbe.liveIds(sc) -- broadcasts
        assert(live.isEmpty, s"$name left broadcasts ${live.mkString(", ")}")
      }
    }
  }
}
