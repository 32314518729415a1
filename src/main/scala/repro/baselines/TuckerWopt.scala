package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{IterStat, RowBlocks, TuckerModel}
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, DenseTensor, SparseTensor}

/** Tucker-wOPT [18] (Filipović & Jukić): accuracy-focused Tucker completion
  * that minimizes the observed-only loss
  * `f = ½‖W ⊙ (X - G ×_1 A^(1) … ×_N A^(N))‖²` (W the observation mask)
  * by a first-order method over *dense* tensors — the residual, the mask and
  * every per-mode partial product are `O(I^N)` / `O(I^{N-1}J)` allocations.
  *
  * That dense footprint is exactly why the paper reports O.O.M. for wOPT on
  * every large sweep; here those allocations pass through `MemoryGuard`, so
  * the same inputs raise `SimulatedOom`. Where it fits, it is accurate
  * (observed-only loss, like P-Tucker) but slow — the Fig-6/7/11 shape.
  *
  * The original uses nonlinear CG; this implementation uses gradient descent
  * with backtracking + growth, which preserves the per-iteration cost and
  * memory profile (same gradient evaluations) and reaches the same fixed
  * points; `TuckerWoptSpec` verifies loss decrease and recovery of planted
  * low-rank structure. `fit` collects the entries through the checked
  * reader that the sparse methods share ([[RowBlocks.collectChecked]]).
  */
object TuckerWopt {

  def fit(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int],
          maxIters: Int = 50, seed: Long = 17, initialStep: Double = 0.5): TuckerModel = {
    val obs = RowBlocks.collectChecked(tensor, "wopt").map(e => (e.idx, e.value))
    fitEntries(tensor.dims, obs, ranks, maxIters, seed, initialStep)
  }

  def fitEntries(dims: Array[Int], obs: Array[(Array[Int], Double)], ranks: Array[Int],
                 maxIters: Int, seed: Long = 17, initialStep: Double = 0.5): TuckerModel = {
    val order = dims.length
    require(ranks.length == order)
    val x = DenseTensor.fromEntries(dims, obs.toIndexedSeq)
    val w = DenseTensor.zeros(dims)
    obs.foreach { case (idx, _) => w(idx) = 1.0 }
    val normObs = math.sqrt(obs.map { case (_, v) => v * v }.sum)

    // Small-magnitude init keeps the first dense residual well-scaled.
    var factors = Array.tabulate(order)(n => DenseMatrix.rand(dims(n), ranks(n), seed + n).scale(0.5))
    var core = DenseTensor.rand(ranks, seed + 100)

    def reconstruct(g: DenseTensor, fs: Array[DenseMatrix]): DenseTensor = {
      var t = g
      var k = 0
      while (k < order) { t = t.modeProduct(k, fs(k)); k += 1 }
      t
    }

    def maskedResidual(fs: Array[DenseMatrix], g: DenseTensor): DenseTensor = {
      val xh = reconstruct(g, fs)
      val e = DenseTensor.zeros(dims)
      var i = 0
      while (i < e.data.length) {
        e.data(i) = w.data(i) * (xh.data(i) - x.data(i)); i += 1
      }
      e
    }

    def lossOf(e: DenseTensor): Double = {
      var s = 0.0; var i = 0
      while (i < e.data.length) { s += e.data(i) * e.data(i); i += 1 }
      0.5 * s
    }

    var step = initialStep
    var history = Vector.empty[IterStat]
    var e = maskedResidual(factors, core)
    var loss = lossOf(e)
    var it = 0
    while (it < maxIters) {
      val t0 = System.nanoTime()
      // Gradients: ∂f/∂A^(n) = E_(n) · H_(n)ᵀ with H = G ×_{k≠n} A^(k);
      //            ∂f/∂G     = E ×_1 A^(1)ᵀ … ×_N A^(N)ᵀ.
      val gradF = Array.tabulate(order) { n =>
        var h = core
        var k = 0
        while (k < order) { if (k != n) h = h.modeProduct(k, factors(k)); k += 1 }
        e.matricize(n) * h.matricize(n).transpose
      }
      var gradG = e
      var k = 0
      while (k < order) { gradG = gradG.modeProduct(k, factors(k).transpose); k += 1 }

      // Backtracking line search on the full parameter block.
      var accepted = false
      var tries = 0
      while (!accepted && tries < 30) {
        val candF = Array.tabulate(order)(n => factors(n) - gradF(n).scale(step))
        val candG = new DenseTensor(ranks.clone(),
          core.data.zip(gradG.data).map { case (g, d) => g - step * d })
        val candE = maskedResidual(candF, candG)
        val candLoss = lossOf(candE)
        if (candLoss <= loss) {
          factors = candF; core = candG; e = candE; loss = candLoss
          step *= 1.2
          accepted = true
        } else { step *= 0.5; tries += 1 }
      }
      val err = math.sqrt(2.0 * loss)
      history :+= IterStat(it + 1, (System.nanoTime() - t0) / 1000000L,
        err, 1.0 - err / math.max(normObs, 1e-12), ranks.product)
      it += 1
      if (!accepted) it = maxIters // stuck: no descent direction at any step
    }
    TuckerModel(dims, ranks, factors, CoreTensor.fromDense(core), history)
  }
}
