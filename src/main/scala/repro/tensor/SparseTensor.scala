package repro.tensor

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.apache.spark.storage.StorageLevel

/** One observed cell of a sparse tensor. `idx` is 0-based. */
final case class TensorEntry(idx: Array[Int], value: Double)

/** Sparse, partially observed N-order tensor.
  *
  * Entries live as a Spark DataFrame (`i0…i{N-1}: int, value: double`) so
  * generation, statistics and the DuckDB oracle stay at the SQL layer. The
  * solvers and `TuckerModel`'s evaluation read its rows through one checked
  * reader (`RowBlocks`), because the paper's contribution (row-parallel
  * ALS) is an RDD-layer computation (see DESIGN.md §2).
  */
final class SparseTensor(val dims: Array[Int], val df: DataFrame) extends Serializable {

  def order: Int = dims.length

  /** Column names `i0 … i{N-1}`. */
  def indexCols: Seq[String] = (0 until order).map(k => s"i$k")

  /** Entries as a typed RDD, repartitioned (a shuffle) into
    * `numPartitions` slices, with no check of the entries. No solver or
    * evaluation reads it; the specs and the benchmark's probe of its cost do.
    */
  def entriesRdd(numPartitions: Int): RDD[TensorEntry] = {
    val n = order
    df.rdd
      .map { r =>
        val idx = new Array[Int](n)
        var k = 0
        while (k < n) { idx(k) = r.getInt(k); k += 1 }
        TensorEntry(idx, r.getDouble(n))
      }
      .repartition(numPartitions)
  }

  def nnz: Long = df.count()

  /** Frobenius norm over *observed* entries (Eq. 1 restricted to Ω). */
  def frobeniusNorm: Double =
    math.sqrt(df.agg(sum(col("value") * col("value"))).head.getDouble(0))

  /** Deterministic train/test split on a hash of the indices — the paper's
    * 90/10 protocol for test-RMSE (Section IV-A1).
    */
  def split(trainFraction: Double = 0.9, salt: Int = 0): (SparseTensor, SparseTensor) = {
    val h = pmod(hash((indexCols.map(col) :+ lit(salt)): _*), lit(1000))
    val cut = (trainFraction * 1000).toInt
    val train = df.where(h < cut)
    val test  = df.where(h >= cut)
    (new SparseTensor(dims, train), new SparseTensor(dims, test))
  }

  def persisted(): SparseTensor = {
    df.persist(StorageLevel.MEMORY_AND_DISK)
    this
  }

  def unpersist(): Unit = { df.unpersist(); () }

  /** Driver-side materialization (tests / dense baselines only). */
  def collectEntries(): Array[(Array[Int], Double)] = {
    val n = order
    df.collect().map { r =>
      val idx = new Array[Int](n)
      var k = 0
      while (k < n) { idx(k) = r.getInt(k); k += 1 }
      (idx, r.getDouble(n))
    }
  }
}

object SparseTensor {

  def schema(order: Int): StructType =
    StructType((0 until order).map(k => StructField(s"i$k", IntegerType, nullable = false))
      :+ StructField("value", DoubleType, nullable = false))

  /** Wraps a DataFrame already in `i0…i{N-1}, value` layout. */
  def apply(dims: Array[Int], df: DataFrame): SparseTensor = new SparseTensor(dims, df)

  /** Builds from driver-side entries (tests only). */
  def fromEntries(spark: SparkSession, dims: Array[Int],
                  entries: Seq[(Array[Int], Double)]): SparseTensor = {
    val rows = entries.map { case (idx, v) => Row.fromSeq(idx.toSeq :+ v) }
    val df = spark.createDataFrame(
      spark.sparkContext.parallelize(rows.toList), schema(dims.length))
    new SparseTensor(dims, df)
  }
}
