package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, SparseTensor, TensorEntry}

/** Per-iteration record: wall time, Eq.-6 reconstruction error over the
  * training entries, fit = 1 - error/‖X‖, and the surviving core size
  * (shrinks only under P-Tucker-Approx).
  */
final case class IterStat(iter: Int, millis: Long, error: Double, fit: Double, coreNnz: Int)

/** A trained Tucker model: factor matrices `A^(n)` and core `G`.
  *
  * `predict` is Eq. (5); `reconstructionError` is Eq. (6);
  * `testRmse` is the paper's missing-entry metric (Section IV-E).
  */
final case class TuckerModel(dims: Array[Int], ranks: Array[Int],
                             factors: Array[DenseMatrix], core: CoreTensor,
                             history: Vector[IterStat]) {

  def order: Int = dims.length

  /** Eq. (5): predicted value of cell `idx`. */
  def predict(idx: Array[Int]): Double =
    TuckerKernels.predict(idx, TuckerKernels.factorData(factors), TuckerKernels.coreCells(core))

  /** Eq. (6) over the observed entries of `t`. */
  def reconstructionError(spark: SparkSession, t: SparseTensor, partitions: Int = 0): Double = {
    val p = if (partitions > 0) partitions else spark.sparkContext.defaultParallelism
    math.sqrt(TuckerKernels.sumSquaredError(spark, t.entriesRdd(p), factors, core))
  }

  /** Root mean squared prediction error over held-out entries. */
  def testRmse(spark: SparkSession, t: SparseTensor, partitions: Int = 0): Double = {
    val p = if (partitions > 0) partitions else spark.sparkContext.defaultParallelism
    val rdd = t.entriesRdd(p)
    val n = rdd.count()
    require(n > 0, "empty test set")
    math.sqrt(TuckerKernels.sumSquaredError(spark, rdd, factors, core) / n)
  }

  /** fit = 1 - ‖X - X'‖/‖X‖ over observed entries (Section IV-C). */
  def fit(spark: SparkSession, t: SparseTensor): Double =
    1.0 - reconstructionError(spark, t) / t.frobeniusNorm

  def avgMillisPerIter: Double =
    if (history.isEmpty) 0.0 else history.map(_.millis).sum.toDouble / history.size
}

/** The one "core cell × factor rows" product every P-Tucker quantity is
  * built from, and the distributed prediction/error sums over it. Factors
  * and core travel to tasks as broadcast plain arrays ([[factorData]],
  * [[coreCells]]) to keep task closures small.
  */
object TuckerKernels {

  /** Broadcast form of the factor matrices: `(cols, rowMajorData)` per mode. */
  type FactorData = Array[(Int, Array[Double])]
  /** Broadcast form of the core: `(cellIndex, G_β)` per surviving cell. */
  type CoreCells = Array[(Array[Int], Double)]

  /** [[cellProduct]]'s `skip` when every mode is multiplied in. */
  final val NoSkip = -1

  def factorData(factors: Array[DenseMatrix]): FactorData = factors.map(f => (f.cols, f.data))

  def coreCells(core: CoreTensor): CoreCells = core.entries.map(e => (e.idx, e.value))

  /** `g · ∏_{k≠skip} a^(k)_{idx_k, cell_k}`, multiplied in ascending mode
    * order. With `g = G_β` it is Pres (Alg. 3); with `skip = n`, one cell's
    * term of δ (Eq. 13); summed over cells, the prediction (Eq. 5).
    */
  def cellProduct(idx: Array[Int], cell: Array[Int], g: Double, skip: Int, f: FactorData): Double = {
    var p = g
    var k = 0
    while (k < idx.length) {
      if (k != skip) {
        val fk = f(k)
        p *= fk._2(idx(k) * fk._1 + cell(k))
      }
      k += 1
    }
    p
  }

  /** Eq. (5) for one cell, over plain arrays. */
  def predict(idx: Array[Int], factorData: FactorData, coreCells: CoreCells): Double = {
    var v = 0.0
    var b = 0
    while (b < coreCells.length) {
      val c = coreCells(b)
      v += cellProduct(idx, c._1, c._2, NoSkip, factorData)
      b += 1
    }
    v
  }

  /** `Σ_{α∈Ω} (x_α - x̂_α)²` — the inside of Eq. (6), distributed. */
  def sumSquaredError(spark: SparkSession, entries: RDD[TensorEntry],
                      factors: Array[DenseMatrix], core: CoreTensor): Double = {
    val bF = spark.sparkContext.broadcast(factorData(factors))
    val bC = spark.sparkContext.broadcast(coreCells(core))
    try {
      entries
        .map { e =>
          val d = e.value - predict(e.idx, bF.value, bC.value)
          d * d
        }
        .treeReduce(_ + _)
    } finally { bF.destroy(); bC.destroy() }
  }
}
