package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.TuckerModel
import repro.tensor.{SparseTensor, TensorEntry}
import scala.collection.mutable

/** Tucker-CSF [20] (Smith & Karypis): HOOI whose tensor-times-matrix-chain
  * (TTMc) is accelerated by a compressed-sparse-fiber structure — entries
  * sharing index prefixes reuse the partial Kronecker products along the
  * shared path instead of rebuilding the full `⊗_{k≠n} a^(k)_{i_k,:}` per
  * nonzero. One CSF allocation (ascending mode order), as in the paper's
  * experimental setting.
  *
  * Spark analog: each partition sorts its entries lexicographically by the
  * non-target modes and walks them with a stack of partial Kronecker
  * vectors (longest-common-prefix reuse ≙ the CSF tree walk), emitting
  * accumulated `Y_(n)` rows that [[HooiCommon.sweep]] merges by
  * `reduceByKey`. The SVD path is the shared Gram route of [[HooiCommon]].
  * Must numerically match `TuckerHooi` (`TuckerCsfSpec` checks).
  */
object TuckerCsf {

  def fit(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int],
          maxIters: Int = 20, partitions: Int = 0, seed: Long = 17): TuckerModel =
    HooiCommon.sweep(spark, tensor, ranks, maxIters, partitions, seed) { (entries, mode, kronLen, bF) =>
      entries.mapPartitions(part => csfTtmcRows(part, mode, kronLen, bF.value))
    }

  /** CSF-style TTMc over one partition: sort by the non-`mode` indices,
    * reuse partial Kronecker vectors across the longest common prefix with
    * the previous entry (the fiber-tree walk), accumulate per `i_mode`.
    */
  private[baselines] def csfTtmcRows(part: Iterator[TensorEntry], mode: Int, kronLen: Int,
                                     f: Array[(Int, Array[Double])]): Iterator[(Int, Array[Double])] = {
    val arr = part.toArray
    if (arr.isEmpty) return Iterator.empty
    val order = arr(0).idx.length
    val modesOrder = (0 until order).filter(_ != mode).toArray

    java.util.Arrays.sort(arr, new java.util.Comparator[TensorEntry] {
      override def compare(a: TensorEntry, b: TensorEntry): Int = {
        var l = 0; var c = 0
        while (l < modesOrder.length && c == 0) {
          val k = modesOrder(l)
          c = java.lang.Integer.compare(a.idx(k), b.idx(k))
          l += 1
        }
        c
      }
    })

    val acc = mutable.HashMap.empty[Int, Array[Double]]
    // partials(l) = unscaled Kronecker of the first l non-target rows.
    val partials = new Array[Array[Double]](modesOrder.length + 1)
    partials(0) = Array(1.0)
    var prev: TensorEntry = null
    var i = 0
    while (i < arr.length) {
      val e = arr(i)
      var common = 0
      if (prev != null) {
        while (common < modesOrder.length &&
               e.idx(modesOrder(common)) == prev.idx(modesOrder(common))) common += 1
      }
      var lvl = common
      while (lvl < modesOrder.length) {
        val k = modesOrder(lvl)
        val (cols, data) = f(k)
        val rowOff = e.idx(k) * cols
        val cur = partials(lvl)
        val next = new Array[Double](cur.length * cols)
        var j = 0
        while (j < cols) {
          val w = data(rowOff + j)
          if (w != 0.0) {
            var c = 0
            while (c < cur.length) { next(j * cur.length + c) = w * cur(c); c += 1 }
          }
          j += 1
        }
        partials(lvl + 1) = next
        lvl += 1
      }
      val full = partials(modesOrder.length)
      val out = acc.getOrElseUpdate(e.idx(mode), new Array[Double](kronLen))
      val x = e.value
      var c = 0
      while (c < kronLen) { out(c) += x * full(c); c += 1 }
      prev = e
      i += 1
    }
    acc.iterator
  }
}
