package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
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
  * `reconstructionError` is Eq. (6); `testRmse` is the paper's
  * missing-entry metric (Section IV-E). Both read the tensor through the
  * checked reader ([[RowBlocks]]) and contract each entry with the core's
  * tree ([[CoreTree.products]]), so the core's cells must be in
  * `DenseTensor.indices` order, as every producer in this repository
  * yields them; any other order is an IllegalArgumentException.
  */
final case class TuckerModel(dims: Array[Int], ranks: Array[Int],
                             factors: Array[DenseMatrix], core: CoreTensor,
                             history: Vector[IterStat]) {

  def order: Int = dims.length

  /** Eq. (6) over the observed entries of `t`, in one job of at most
    * `partitions` tasks (0 → Spark default parallelism).
    */
  def reconstructionError(spark: SparkSession, t: SparseTensor, partitions: Int = 0): Double =
    math.sqrt(squaredErrors(spark, t, partitions)._2)

  /** Root mean squared prediction error over held-out entries, in one job
    * of at most `partitions` tasks (0 → Spark default parallelism).
    */
  def testRmse(spark: SparkSession, t: SparseTensor, partitions: Int = 0): Double = {
    val (n, sse) = squaredErrors(spark, t, partitions)
    require(n > 0, "empty test set")
    math.sqrt(sse / n)
  }

  def avgMillisPerIter: Double =
    if (history.isEmpty) 0.0 else history.map(_.millis).sum.toDouble / history.size

  /** [[TuckerKernels.squaredErrors]] over `t`'s entries, each checked, with
    * the input's partitions coalesced, without a shuffle, into at most
    * `partitions` tasks. The job is tagged `model/i0/m0/error`.
    */
  private def squaredErrors(spark: SparkSession, t: SparseTensor, partitions: Int): (Long, Double) = {
    require(t.dims.sameElements(dims), s"tensor dims (${t.dims.mkString(", ")}) are not the model's (${dims.mkString(", ")})")
    RowBlocks.checkSchema(t)
    val p = if (partitions > 0) partitions else spark.sparkContext.defaultParallelism
    val entries = t.df.queryExecution.toRdd.mapPartitions(new RowBlocks.CheckedEntries(dims)).coalesce(p)
    RowBlocks.inputChecked(TuckerKernels.squaredErrors(entries, Jobs.tag("model", 0, 0, "error"), factors, core))
  }
}

/** The model in the form tasks receive it: factors and core as broadcast
  * plain arrays ([[factorData]], [[coreCells]]) or the core's tree
  * ([[ModelData]]), which every distributed product of core cells and factor
  * rows contracts. [[predict]], the cell list written out, stays as the
  * independent Eq.-5 reference.
  */
object TuckerKernels {

  /** Broadcast form of the factor matrices: `(cols, rowMajorData)` per mode. */
  type FactorData = Array[(Int, Array[Double])]
  /** Broadcast form of the core: `(cellIndex, G_β)` per surviving cell. */
  type CoreCells = Array[(Array[Int], Double)]

  /** What a task needs of the model: the factors, the core's tree and, for
    * R(β) in Approx's last mode update, the core's [[CoreTree.TopSplit]].
    * Built once on the driver and shipped in one broadcast.
    */
  private[repro] final case class ModelData(f: FactorData, tree: CoreTree, split: Option[CoreTree.TopSplit] = None)

  def factorData(factors: Array[DenseMatrix]): FactorData = factors.map(f => (f.cols, f.data))

  def coreCells(core: CoreTensor): CoreCells = core.entries.map(e => (e.idx, e.value))

  /** Eq. (5) for one cell, over plain arrays: `Σ_β G_β ∏_k a^(k)_{idx_k β_k}`,
    * cell by cell, each product multiplied in ascending mode order.
    */
  def predict(idx: Array[Int], factorData: FactorData, coreCells: CoreCells): Double = {
    var v = 0.0
    var b = 0
    while (b < coreCells.length) {
      val c = coreCells(b)
      var p = c._2
      var k = 0
      while (k < idx.length) {
        val fk = factorData(k)
        p *= fk._2(idx(k) * fk._1 + c._1(k))
        k += 1
      }
      v += p
      b += 1
    }
    v
  }

  /** `(|Ω|, Σ_{α∈Ω} (x_α − x̂_α)²)` over `entries`, the inside of Eq. (6),
    * in one job described by `description`; the tasks' sums are added in
    * partition order. The core's tree is built before the broadcast, so a
    * core whose cells are out of `DenseTensor.indices` order fails before
    * any job runs.
    */
  def squaredErrors(entries: RDD[TensorEntry], description: String, factors: Array[DenseMatrix],
                    core: CoreTensor): (Long, Double) = {
    val bM = entries.sparkContext.broadcast(ModelData(factorData(factors), CoreTree(core)))
    try Jobs.run(entries, description, new SquaredErrors(bM))
      .foldLeft((0L, 0.0)) { case ((n1, s1), (n2, s2)) => (n1 + n2, s1 + s2) }
    finally bM.destroy()
  }

  /** One partition's share of [[squaredErrors]], with one tree scratch. */
  private final class SquaredErrors(bM: Broadcast[ModelData]) extends PartitionTask[TensorEntry, (Long, Double)] {
    def apply(ctx: TaskContext, es: Iterator[TensorEntry]): (Long, Double) = {
      val ModelData(f, tree, _) = bM.value
      val s = tree.scratch()
      val p = new Array[Double](tree.nnz)
      var n = 0L
      var sse = 0.0
      es.foreach { e =>
        val r = e.value - tree.products(e.idx, f, s, p)
        sse += r * r
        n += 1
      }
      (n, sse)
    }
  }
}
