package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.RowBlocks.RowBlock
import repro.core.TuckerKernels.FactorData
import repro.core.TuckerModel
import repro.tensor.SparseTensor

/** Tucker-CSF [20] (Smith & Karypis): HOOI whose tensor-times-matrix-chain
  * (TTMc) is accelerated by a compressed-sparse-fiber structure: entries
  * sharing index prefixes reuse the partial Kronecker products along the
  * shared path instead of rebuilding the full `⊗_{k≠n} a^(k)_{i_k,:}` per
  * nonzero. One CSF allocation (ascending mode order), as in the paper's
  * experimental setting.
  *
  * Spark analog: a mode-`n` row block already holds each row's entries as
  * one run sorted by the non-target indices in ascending mode order, which
  * is the CSF tree's order below the root `i_n`. [[Ttmc]] walks a run with a
  * stack of partial Kronecker vectors (longest-common-prefix reuse ≙ the
  * CSF tree walk). The sweep and the SVD path are the shared Gram route of
  * [[HooiCommon]]. Must numerically match `TuckerHooi` (`TuckerCsfSpec`
  * checks).
  */
object TuckerCsf {

  def fit(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int],
          maxIters: Int = 20, partitions: Int = 0, seed: Long = 17): TuckerModel =
    HooiCommon.sweep(spark, tensor, ranks, maxIters, partitions, seed)(Ttmc)

  /** CSF's TTMc of a run: each entry reuses the partial Kronecker vectors of
    * the longest index prefix, over the non-target modes in ascending
    * order, that it shares with the entry before it in the run (the
    * fiber-tree walk).
    */
  private[baselines] object Ttmc extends HooiCommon.RunTtmc {
    def apply(b: RowBlock, start: Int, end: Int, n: Int, f: FactorData, y: Array[Double]): Unit = {
      val order = f.length
      val modes = (0 until order).filter(_ != n).toArray
      // partials(l) = the Kronecker product of the first l non-target rows.
      val partials = new Array[Array[Double]](modes.length + 1)
      partials(0) = Array(1.0)
      var l = 0
      while (l < modes.length) { partials(l + 1) = new Array[Double](partials(l).length * f(modes(l))._1); l += 1 }
      val full = partials(modes.length)
      var e = start
      while (e < end) {
        val off = e * order
        var lvl = 0
        if (e > start)
          while (lvl < modes.length && b.idx(off + modes(lvl)) == b.idx(off - order + modes(lvl))) lvl += 1
        while (lvl < modes.length) {
          val k = modes(lvl)
          val cols = f(k)._1
          val rowOff = b.idx(off + k) * cols
          val cur = partials(lvl)
          val next = partials(lvl + 1)
          var j = 0
          while (j < cols) {
            val w = f(k)._2(rowOff + j)
            var c = 0
            while (c < cur.length) { next(j * cur.length + c) = w * cur(c); c += 1 }
            j += 1
          }
          lvl += 1
        }
        val x = b.values(e)
        var c = 0
        while (c < full.length) { y(c) += x * full(c); c += 1 }
        e += 1
      }
    }
  }
}
