package repro.baselines

import repro.{SparkSpec, TensorGen}
import repro.linalg.DenseMatrix
import repro.tensor.{DenseTensor, SparseTensor, TensorEntry}

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
    val ranks = Array(2, 3, 2)
    val factorRows: Array[Array[Double]] = Array(
      null, Array(1.0, 2.0, 3.0), Array(4.0, 5.0))
    val e = TensorEntry(Array(0, 0, 0), 2.0)
    val acc = new Array[Double](6)
    HooiCommon.accumulateKron(acc, e, 0, factorRows)
    // layout: first non-target mode fastest → index = j1 + 3*j2
    for (j1 <- 0 until 3; j2 <- 0 until 2) {
      val want = 2.0 * factorRows(1)(j1) * factorRows(2)(j2)
      assert(math.abs(acc(j1 + 3 * j2) - want) < 1e-12)
    }
    val _ = ranks
  }

  test("coreFromEntries equals the literal definition") {
    val t = TensorGen.uniform(spark, Array(5, 4, 3), 30, seed = 3)
    val factors = Array.tabulate(3)(n => DenseMatrix.rand(t.dims(n), 2, 40 + n))
    val core = HooiCommon.coreFromEntries(spark, t.entriesRdd(2), factors, Array(2, 2, 2))
    val entries = t.collectEntries()
    core.entries.foreach { cell =>
      val want = entries.map { case (idx, x) =>
        x * (0 until 3).map(k => factors(k)(idx(k), cell.idx(k))).product
      }.sum
      assert(math.abs(cell.value - want) < 1e-10)
    }
  }

  test("a failing S-HOT or CSF fit leaves no RDD persisted") {
    tensor.nnz // the input's own cache is built before the snapshot
    val sc = spark.sparkContext
    val fits = Seq[(String, () => Unit)](
      "S-HOT" -> (() => SHotScan.fit(spark, tensor, Array(3, 1, 1), maxIters = 1, partitions = 2)),
      "CSF" -> (() => TuckerCsf.fit(spark, tensor, Array(3, 1, 1), maxIters = 1, partitions = 2)))
    for ((name, fit) <- fits) {
      val before = sc.getPersistentRDDs.keySet
      // mode 0: rank 3 > L = J_1·J_2 = 1 fails factorFromRows' check
      intercept[IllegalArgumentException] { fit() }
      val leaked = sc.getPersistentRDDs.keySet -- before
      assert(leaked.isEmpty, s"$name left RDDs ${leaked.mkString(", ")} persisted")
    }
  }
}
