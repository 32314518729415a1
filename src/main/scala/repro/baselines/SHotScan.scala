package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.TuckerModel
import repro.tensor.SparseTensor

/** S-HOT_scan [17]: HOOI for large sparse tensors that never materializes
  * the intermediate `Y = X ×_{k≠n} A^(k)ᵀ` — every quantity is recomputed by
  * scanning the nonzeros on the fly (missing entries are zeros, as in
  * Algorithm 1).
  *
  * Spark analog of the scan: each nonzero contributes
  * `x_α · ⊗_{k≠n} a^(k)_{i_k,:}` to row `i_n` of the implicit `Y_(n)`
  * (summed by `reduceByKey` in [[HooiCommon.sweep]]), the `L×L` Gram matrix
  * is reduced where the rows live, and the driver only sees
  * `O(J^{2(N-1)})` intermediate data — the same asymptotic footprint the
  * paper credits S-HOT with, versus P-Tucker's `O(T·J²)`.
  *
  * Must numerically match `TuckerHooi` (same math); `SHotScanSpec` checks.
  */
object SHotScan {

  def fit(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int],
          maxIters: Int = 20, partitions: Int = 0, seed: Long = 17): TuckerModel =
    HooiCommon.sweep(spark, tensor, ranks, maxIters, partitions, seed) { (entries, mode, kronLen, bF) =>
      entries.map { e =>
        val f = bF.value
        val fRows = new Array[Array[Double]](f.length)
        var k = 0
        while (k < f.length) {
          if (k != mode) {
            val (cols, data) = f(k)
            fRows(k) = java.util.Arrays.copyOfRange(data, e.idx(k) * cols, (e.idx(k) + 1) * cols)
          }
          k += 1
        }
        val y = new Array[Double](kronLen)
        HooiCommon.accumulateKron(y, e, mode, fRows)
        (e.idx(mode), y)
      }
    }
}
