package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.RowBlocks.RowBlock
import repro.core.TuckerKernels.FactorData
import repro.core.TuckerModel
import repro.tensor.SparseTensor

/** S-HOT_scan [17]: HOOI for large sparse tensors that never materializes
  * the intermediate `Y = X ×_{k≠n} A^(k)ᵀ`: every quantity is recomputed by
  * scanning the nonzeros on the fly (missing entries are zeros, as in
  * Algorithm 1).
  *
  * Spark analog of the scan: [[HooiCommon.sweep]] scans the row blocks
  * twice per mode, once for the `L×L` Gram matrix of `Y_(n)` and once for
  * the projected rows, and in each scan every nonzero adds
  * `x_α · ⊗_{k≠n} a^(k)_{i_k,:}` to the `y_{i_n}` of its row's run, which
  * lives only while the run is scanned. The driver sees `O(J^{2(N-1)})`
  * intermediate data, plus `J^{N-1}` doubles per row split over blocks:
  * the asymptotic footprint the paper credits S-HOT with, against
  * P-Tucker's `O(T·J²)`.
  *
  * Must numerically match `TuckerHooi` (same math); `SHotScanSpec` checks.
  */
object SHotScan {

  def fit(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int],
          maxIters: Int = 20, partitions: Int = 0, seed: Long = 17): TuckerModel =
    HooiCommon.sweep(spark, tensor, ranks, maxIters, partitions, seed)(Ttmc)

  /** S-HOT's TTMc of a run: each entry's Kronecker product built anew
    * ([[HooiCommon.accumulateKron]]).
    */
  private[baselines] object Ttmc extends HooiCommon.RunTtmc {
    def apply(b: RowBlock, start: Int, end: Int, n: Int, f: FactorData, y: Array[Double]): Unit = {
      val order = f.length
      var e = start
      while (e < end) {
        HooiCommon.accumulateKron(y, b.idx, e * order, b.values(e), n, f)
        e += 1
      }
    }
  }
}
