package repro.baselines

import repro.{SparkSpec, TensorGen}
import repro.core.RowBlocks
import repro.core.RowBlocks.RowBlock
import repro.linalg.DenseMatrix
import repro.tensor.{DenseTensor, SparseTensor}

class TuckerCsfSpec extends SparkSpec {

  private lazy val tensor =
    TensorGen.uniform(spark, Array(10, 9, 8), 250, seed = 6).persisted()

  /** Mode `n`'s row block of `entries` (none split), sorted as the layout sorts it. */
  private def blockOf(entries: Seq[(Array[Int], Double)], dims: Array[Int], n: Int): RowBlock =
    RowBlocks.sortedBlock(n, dims(n), dims.length, entries.flatMap(_._1).toArray, entries.map(_._2).toArray, _ => false)

  /** Each row's `y_i` from `ttmc` over the row's run of `b`. */
  private def runRows(ttmc: HooiCommon.RunTtmc, b: RowBlock, n: Int, kronLen: Int,
                      f: Array[(Int, Array[Double])]): Map[Int, Array[Double]] =
    Iterator.iterate(0)(b.runEnd(n, _)).takeWhile(_ < b.nnz).map { start =>
      val y = new Array[Double](kronLen)
      ttmc(b, start, b.runEnd(n, start), n, f, y)
      b.idx(start * b.order + n) -> y
    }.toMap

  test("the CSF run kernel equals the naive Kronecker sum") {
    val factors = Array.tabulate(3)(n => DenseMatrix.rand(tensor.dims(n), 2, 30 + n))
    val f = factors.map(m => (m.cols, m.data))
    val entries = tensor.collectEntries().toSeq
    for (mode <- 0 until 3) {
      val kronLen = (0 until 3).filter(_ != mode).map(_ => 2).product
      val viaCsf = runRows(TuckerCsf.Ttmc, blockOf(entries, tensor.dims, mode), mode, kronLen, f)
      // naive reference
      val naive = scala.collection.mutable.HashMap.empty[Int, Array[Double]]
      entries.foreach { case (idx, x) =>
        HooiCommon.accumulateKron(naive.getOrElseUpdate(idx(mode), new Array[Double](kronLen)), idx, 0, x, mode, f)
      }
      assert(viaCsf.keySet == naive.keySet)
      viaCsf.foreach { case (i, v) =>
        v.zip(naive(i)).foreach { case (a, b) =>
          assert(math.abs(a - b) < 1e-10, s"mode $mode row $i")
        }
      }
    }
  }

  test("S-HOT and CSF over empty row blocks match dense HOOI") {
    // six entries over T = 8 blocks: blocks 0 and 4 of every mode are empty,
    // each other block holds one entry, and every row with two is split
    val t = SparseTensor.fromEntries(spark, Array(4, 3, 3), Seq(
      (Array(0, 0, 0), 1.0), (Array(1, 2, 1), 2.0), (Array(3, 1, 2), 0.5),
      (Array(2, 0, 1), 1.5), (Array(0, 2, 2), 0.7), (Array(3, 0, 0), 1.2)))
    val dense = DenseTensor.fromEntries(t.dims, t.collectEntries().toIndexedSeq)
    val hooi = TuckerHooi.fitDense(dense, Array(1, 1, 1), maxIters = 3, seed = 17)
    for ((name, fit) <- Seq("S-HOT" -> SHotScan.fit _, "CSF" -> TuckerCsf.fit _)) {
      val m = fit(spark, t, Array(1, 1, 1), 3, 8, 17)
      for (n <- 0 until 3) {
        val d = (hooi.factors(n) * hooi.factors(n).transpose).maxAbsDiff(m.factors(n) * m.factors(n).transpose)
        assert(d < 1e-6, s"$name: mode-$n subspace distance $d")
      }
      assert(m.core.toDense.maxAbsDiff(TuckerHooi.coreOf(dense, m.factors)) < 1e-8, s"$name: core")
    }
  }

  test("prefix reuse is exercised: entries sharing non-target indices accumulate correctly") {
    // row 0 of mode 0 holds three entries that share i1 = 0 and two of
    // them also i2 = 0 and 1 in turn, so the CSF walk reuses the partial
    // product of the shared prefix; row 1 starts a fresh walk.
    val factors = Array(DenseMatrix.rand(2, 2, 1), DenseMatrix.rand(2, 2, 2),
      DenseMatrix.rand(2, 2, 3))
    val f = factors.map(m => (m.cols, m.data))
    val entries = Seq(
      (Array(0, 0, 0), 1.0), (Array(0, 0, 1), 2.0), (Array(0, 1, 1), 3.0), (Array(1, 0, 1), 4.0))
    val rows = runRows(TuckerCsf.Ttmc, blockOf(entries, Array(2, 2, 2), 0), 0, 4, f)
    assert(rows.keySet == Set(0, 1))
    for (i <- 0 until 2) {
      rows(i).zipWithIndex.foreach { case (v, c) =>
        // layout: j1 fastest
        val j1 = c % 2; val j2 = c / 2
        val want = entries.collect { case (idx, x) if idx(0) == i => x * factors(1)(idx(1), j1) * factors(2)(idx(2), j2) }.sum
        assert(math.abs(v - want) < 1e-12, s"row $i, cell $c")
      }
    }
  }

  test("factor subspaces match dense HOOI") {
    val dense = DenseTensor.fromEntries(tensor.dims, tensor.collectEntries().toIndexedSeq)
    val hooi = TuckerHooi.fitDense(dense, Array(2, 2, 2), maxIters = 4, seed = 17)
    val csf = TuckerCsf.fit(spark, tensor, Array(2, 2, 2), maxIters = 4, partitions = 3, seed = 17)
    for (n <- 0 until 3) {
      val d = (hooi.factors(n) * hooi.factors(n).transpose)
        .maxAbsDiff(csf.factors(n) * csf.factors(n).transpose)
      assert(d < 1e-6, s"mode-$n subspace distance $d")
    }
  }

  test("CSF and S-HOT agree with each other (same HOOI semantics)") {
    val shot = SHotScan.fit(spark, tensor, Array(2, 2, 2), maxIters = 3, partitions = 2, seed = 17)
    val csf = TuckerCsf.fit(spark, tensor, Array(2, 2, 2), maxIters = 3, partitions = 2, seed = 17)
    for (n <- 0 until 3) {
      val d = (shot.factors(n) * shot.factors(n).transpose)
        .maxAbsDiff(csf.factors(n) * csf.factors(n).transpose)
      assert(d < 1e-6, s"mode-$n subspace distance $d")
    }
  }
}
