package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{IterStat, TuckerModel}
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, DenseTensor, SparseTensor}

/** Algorithm 1 of the paper: conventional Tucker-ALS (HOOI, De Lathauwer et
  * al.). Missing entries are treated as zeros — the tensor is densified —
  * and factor updates go through `Y = X ×_{k≠n} A^(k)ᵀ` plus a truncated
  * SVD of `Y_(n)`.
  *
  * Test-scope oracle: the numerical ground truth the sparse zero-filled
  * competitors ([[SHotScan]], [[TuckerCsf]]) must match, since all three
  * compute the same mathematical update. Dense allocations go through
  * `MemoryGuard`, so large inputs raise `SimulatedOom`.
  */
object TuckerHooi {

  def fit(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int],
          maxIters: Int = 20, seed: Long = 17): TuckerModel = {
    val dense = DenseTensor.fromEntries(tensor.dims, toIterable(tensor))
    fitDense(dense, ranks, maxIters, seed)
  }

  private def toIterable(t: SparseTensor): Iterable[(Array[Int], Double)] =
    t.collectEntries().toIndexedSeq

  def fitDense(x: DenseTensor, ranks: Array[Int], maxIters: Int, seed: Long = 17): TuckerModel = {
    val order = x.order
    require(ranks.length == order)
    (0 until order).foreach(n => require(ranks(n) <= x.dims(n),
      s"mode $n rank ${ranks(n)} > dim ${x.dims(n)}"))

    // Random init then HOOI sweeps; orthonormalize via QR so the first
    // sweep's mode products are well-conditioned.
    val factors = Array.tabulate(order)(n =>
      DenseMatrix.qr(DenseMatrix.rand(x.dims(n), ranks(n), seed + n))._1)

    var history = Vector.empty[IterStat]
    val normX = x.frobeniusNorm
    var it = 0
    while (it < maxIters) {
      val t0 = System.nanoTime()
      var n = 0
      while (n < order) {
        // Y = X ×_1 A^(1)ᵀ … (skip n) … ×_N A^(N)ᵀ
        var y = x
        var k = 0
        while (k < order) {
          if (k != n) y = y.modeProduct(k, factors(k).transpose)
          k += 1
        }
        factors(n) = leadingLeftSingularVectors(y.matricize(n), ranks(n))
        n += 1
      }
      // Loss of Eq. (4): with orthonormal factors, ‖X - G×A…‖² = ‖X‖² - ‖G‖².
      val g = coreOf(x, factors)
      val err2 = math.max(normX * normX - g.frobeniusNorm * g.frobeniusNorm, 0.0)
      val err = math.sqrt(err2)
      history :+= IterStat(it + 1, (System.nanoTime() - t0) / 1000000L,
        err, 1.0 - err / normX, ranks.product)
      it += 1
    }
    val core = CoreTensor.fromDense(coreOf(x, factors))
    TuckerModel(x.dims, ranks, factors, core, history)
  }

  /** Algorithm 1 line 7: `G = X ×_1 A^(1)ᵀ … ×_N A^(N)ᵀ`. */
  def coreOf(x: DenseTensor, factors: Array[DenseMatrix]): DenseTensor = {
    var g = x
    var k = 0
    while (k < factors.length) { g = g.modeProduct(k, factors(k).transpose); k += 1 }
    g
  }

  /** `r` leading left singular vectors of `y` (rows×cols), i.e. what HOOI's
    * line 5 extracts from `Y_(n)`. Goes through the *smaller* Gram matrix:
    * tall `y` → eigen of `YᵀY` then `U = Y V Σ^{-1}`; wide `y` → eigen of
    * `Y Yᵀ` directly. Near-zero singular values fall back to orthonormal
    * completion via QR so the result always has orthonormal columns.
    */
  def leadingLeftSingularVectors(y: DenseMatrix, r: Int): DenseMatrix = {
    require(r <= math.min(y.rows, y.cols), s"rank $r > min(${y.rows},${y.cols})")
    val u =
      if (y.rows >= y.cols) {
        val (vals, vecs) = DenseMatrix.symEigen(y.gram)
        val out = DenseMatrix.zeros(y.rows, r)
        var j = 0
        while (j < r) {
          val sigma = math.sqrt(math.max(vals(j), 0.0))
          if (sigma > 1e-10) {
            var i = 0
            while (i < y.rows) {
              var s = 0.0; var k = 0
              while (k < y.cols) { s += y(i, k) * vecs(k, j); k += 1 }
              out(i, j) = s / sigma
              i += 1
            }
          }
          j += 1
        }
        out
      } else {
        val (_, vecs) = DenseMatrix.symEigen(y * y.transpose)
        val out = DenseMatrix.zeros(y.rows, r)
        var j = 0
        while (j < r) { var i = 0; while (i < y.rows) { out(i, j) = vecs(i, j); i += 1 }; j += 1 }
        out
      }
    // Re-orthonormalize (also repairs zero columns from tiny sigma).
    DenseMatrix.qr(u)._1
  }
}
