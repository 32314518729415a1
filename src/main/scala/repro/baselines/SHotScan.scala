package repro.baselines

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.{IterStat, TuckerKernels, TuckerModel}
import repro.linalg.DenseMatrix
import repro.tensor.SparseTensor

/** S-HOT_scan [17]: HOOI for large sparse tensors that never materializes
  * the intermediate `Y = X ×_{k≠n} A^(k)ᵀ` — every quantity is recomputed by
  * scanning the nonzeros on the fly (missing entries are zeros, as in
  * Algorithm 1).
  *
  * Spark analog of the scan: each nonzero contributes
  * `x_α · ⊗_{k≠n} a^(k)_{i_k,:}` to row `i_n` of the implicit `Y_(n)`
  * (`aggregateByKey`), the `L×L` Gram matrix is reduced where the rows live,
  * and the driver only sees `O(J^{2(N-1)})` intermediate data — the same
  * asymptotic footprint the paper credits S-HOT with, versus P-Tucker's
  * `O(T·J²)`.
  *
  * Must numerically match [[TuckerHooi]] (same math); `SHotScanSpec` checks.
  */
object SHotScan {

  def fit(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int],
          maxIters: Int = 20, partitions: Int = 0, seed: Long = 17): TuckerModel = {
    val order = tensor.order
    require(ranks.length == order)
    val T = if (partitions > 0) partitions else spark.sparkContext.defaultParallelism
    val entries = tensor.entriesRdd(T).persist(StorageLevel.MEMORY_AND_DISK)
    entries.count()

    val factors = Array.tabulate(order)(n =>
      DenseMatrix.qr(DenseMatrix.rand(tensor.dims(n), ranks(n), seed + n))._1)

    var history = Vector.empty[IterStat]
    var it = 0
    while (it < maxIters) {
      val t0 = System.nanoTime()
      var n = 0
      while (n < order) {
        val kronLen = ranks.indices.filter(_ != n).map(ranks).product
        val bF = spark.sparkContext.broadcast(TuckerKernels.factorData(factors))
        val mode = n
        // combineByKey, not aggregateByKey: avoids one zero-value
        // deserialization per (key, partition) — see PTucker's note.
        val seqOp = (acc: Array[Double], e: repro.tensor.TensorEntry) => {
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
          HooiCommon.accumulateKron(acc, e, mode, fRows)
          acc
        }
        val rows = entries
          .map(e => (e.idx(mode), e))
          .combineByKey(
            (e: repro.tensor.TensorEntry) => seqOp(new Array[Double](kronLen), e),
            seqOp,
            (x: Array[Double], y: Array[Double]) => {
              var i = 0; while (i < x.length) { x(i) += y(i); i += 1 }; x
            })
        factors(n) = HooiCommon.factorFromRows(spark, rows, tensor.dims(n), kronLen, ranks(n))
        bF.destroy()
        n += 1
      }
      history :+= IterStat(it + 1, (System.nanoTime() - t0) / 1000000L,
        Double.NaN, Double.NaN, ranks.product)
      it += 1
    }
    val core = HooiCommon.coreFromEntries(spark, entries, factors, ranks)
    entries.unpersist(blocking = false)
    TuckerModel(tensor.dims, ranks, factors, core, history)
  }
}
