package repro.core

import org.apache.spark.{NarrowDependency, Partition, SparkBridge, SparkException, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.{DoubleType, IntegerType}
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.CollectionAccumulator
import repro.tensor.{SparseTensor, TensorEntry}

import scala.collection.mutable

/** A sparse tensor laid out in row blocks, opened by [[RowBlocks.open]]:
  * `rdd` has T partitions, and partition `b` holds an array of N
  * [[RowBlocks.RowBlock]]s, mode `n`'s block `b` at index `n`. `norm` is
  * ‖X‖ over the observed entries. [[close]] releases the blocks.
  */
private[repro] final class RowBlocks private (val rdd: RDD[Array[RowBlocks.RowBlock]], val norm: Double) {
  def close(): Unit = RowBlocks.release(rdd)
}

/** The one checked reader of a sparse tensor, and the row-block layout that
  * P-Tucker and the HOOI competitors sweep (DESIGN.md §2). Every entry is
  * checked on its first read: an index outside `[0, dims(k))`, a non-finite
  * value, a null field or a column of the wrong type is an
  * IllegalArgumentException that names it, before any other job runs.
  *
  * Mode `n`'s blocks are T equal slices of its entries in the order
  * `(i_n, input order)`: an entry's rank is the number of entries in the
  * rows below its `i_n`, plus the number of its own row's entries before it
  * in input order, and block `b` holds the ranks
  * `[⌊b·|Ω|/T⌋, ⌊(b+1)·|Ω|/T⌋)`. Every block then holds `⌊|Ω|/T⌋` or
  * `⌈|Ω|/T⌉` entries however skewed the rows are, as the paper's threads
  * share a mode's work (§III-C). A row is split exactly when it crosses a
  * slice boundary: its parts sit in consecutive blocks, and only a block's
  * first and last runs can be parts, so a mode has at most T−1 split rows.
  * Input order is the order of the input's partitions, then of the rows
  * within each.
  *
  * A coordinate listed more than once is one observation per occurrence,
  * kept in input order: by the row blocks, so by every method that opens
  * them, and by Cache's Pres table. The copies of a split row's coordinate
  * may land in different parts.
  */
private[repro] object RowBlocks {

  /** Reads `tensor` into row blocks in one job tagged `<method>/i0/m0/open`
    * ([[BlockScan]]): each of its T tasks checks and counts every entry,
    * and keeps its own slice of every mode's entries. The blocks are
    * locally checkpointed ([[materialize]]).
    * Each task reads the whole input twice, so the input should be
    * persisted. An empty tensor is rejected.
    */
  def open(tensor: SparseTensor, T: Int, method: String): RowBlocks = {
    checkSchema(tensor)
    val sums = tensor.df.sparkSession.sparkContext.collectionAccumulator[(Long, Double)]
    val rdd = inputChecked(materialize(new BlockScan(tensor.df.queryExecution.toRdd, tensor.dims, T, sums),
      Jobs.tag(method, 0, 0, "open")))
    // Every task counts the whole input, so all report the same sums.
    val (nnz, sumSq) = sums.value.get(0)
    if (nnz == 0) release(rdd)
    require(nnz > 0, "empty tensor")
    new RowBlocks(rdd, math.sqrt(sumSq))
  }

  /** Every entry of `tensor` on the driver, in input order, each checked by
    * [[decodeChecked]], in one job tagged `<method>/i0/m0/open`. An empty
    * tensor is rejected.
    */
  def collectChecked(tensor: SparseTensor, method: String): Array[TensorEntry] = {
    checkSchema(tensor)
    val entries = inputChecked(Jobs.run(tensor.df.queryExecution.toRdd.mapPartitions(new CheckedEntries(tensor.dims)),
      Jobs.tag(method, 0, 0, "open"), new Jobs.Collect[TensorEntry])).flatten
    require(entries.nonEmpty, "empty tensor")
    entries
  }

  /** Rejects a tensor whose columns are not, by position, N `IntegerType`
    * indices and then one `DoubleType` value: the readers take the columns
    * by position, and an `InternalRow` does not check a column's type.
    */
  def checkSchema(tensor: SparseTensor): Unit = {
    val fields = tensor.df.schema.fields
    val order = tensor.order
    require(fields.length == order + 1,
      s"an order-$order tensor has ${order + 1} columns, $order IntegerType indices and a DoubleType value, " +
        s"not ${fields.length}: ${fields.map(c => s"${c.name} ${c.dataType}").mkString(", ")}")
    fields.zipWithIndex.foreach { case (c, k) =>
      val want = if (k < order) IntegerType else DoubleType
      require(c.dataType == want, s"column $k (${c.name}) has type ${c.dataType}, not $want")
    }
  }

  /** Reads input row `r` into `idx` and returns its value, after
    * [[checkEntry]]. A null field is rejected, naming the entry.
    */
  private def decodeChecked(dims: Array[Int], r: InternalRow, idx: Array[Int]): Double = {
    val order = dims.length
    var k = 0
    while (k <= order) {
      if (r.isNullAt(k)) {
        val fields = (0 to order).map(m => if (r.isNullAt(m)) "null" else if (m < order) r.getInt(m).toString
          else r.getDouble(m).toString)
        throw new IllegalArgumentException(
          s"entry (${fields.init.mkString(", ")}): ${if (k < order) s"mode $k index" else "value"} is null")
      }
      k += 1
    }
    val value = decode(r, idx)
    checkEntry(dims, idx, value)
    value
  }

  /** Reads input row `r`, checked before, into `idx` and returns its value. */
  private def decode(r: InternalRow, idx: Array[Int]): Double = {
    var k = 0
    while (k < idx.length) { idx(k) = r.getInt(k); k += 1 }
    r.getDouble(idx.length)
  }

  /** Rejects an entry with an index outside `[0, dims(k))` or a value that
    * is not finite.
    */
  private def checkEntry(dims: Array[Int], idx: Array[Int], value: Double): Unit = {
    var k = 0
    while (k < dims.length) {
      if (idx(k) < 0 || idx(k) >= dims(k))
        throw new IllegalArgumentException(s"mode $k: index ${idx(k)} outside [0, ${dims(k)})")
      k += 1
    }
    if (!value.isFinite)
      throw new IllegalArgumentException(s"entry (${idx.mkString(", ")}): value $value is not finite")
  }

  /** Runs the job that first reads the input. A [[checkEntry]] failure in a
    * task surfaces as an IllegalArgumentException, not as Spark's job failure.
    */
  def inputChecked[A](job: => A): A =
    try job
    catch {
      case e: SparkException if e.getCause.isInstanceOf[IllegalArgumentException] =>
        throw new IllegalArgumentException(e.getCause.getMessage, e)
    }

  /** Each input row as a [[TensorEntry]], after [[decodeChecked]]. A named
    * class, so that building the RDD skips the closure cleaner.
    */
  final class CheckedEntries(dims: Array[Int]) extends (Iterator[InternalRow] => Iterator[TensorEntry]) with Serializable {
    def apply(rs: Iterator[InternalRow]): Iterator[TensorEntry] = rs.map { r =>
      val idx = new Array[Int](dims.length)
      TensorEntry(idx, decodeChecked(dims, r, idx))
    }
  }

  /** One block of one mode's entries, in columnar form: entry `e` has
    * indices `idx(e·N until (e+1)·N)` and value `values(e)`. The entries are
    * sorted by the mode's index, then the other indices in ascending mode
    * order, so each row's entries form one run. `parts` lists, ascending,
    * the rows whose run is one part of a split row.
    */
  final case class RowBlock(idx: Array[Int], values: Array[Double], parts: Array[Int]) {
    def nnz: Int = values.length
    /** N; not defined for an empty block. */
    def order: Int = idx.length / values.length
    def isPart(i: Int): Boolean = java.util.Arrays.binarySearch(parts, i) >= 0
    /** Copies entry `e`'s indices into `out` (length N). */
    def indexInto(e: Int, out: Array[Int]): Unit = System.arraycopy(idx, e * out.length, out, 0, out.length)
    /** The end of the run that starts at entry `start` of this mode-`n` block. */
    def runEnd(n: Int, start: Int): Int = {
      val N = order
      val i = idx(start * N + n)
      var e = start + 1
      while (e < nnz && idx(e * N + n) == i) e += 1
      e
    }
  }

  private object RowBlock {
    val Empty: RowBlock = RowBlock(Array.emptyIntArray, Array.emptyDoubleArray, Array.emptyIntArray)
  }

  /** The row-block layout, built without a shuffle: T partitions over all
    * of `input`'s. Partition `b` holds an array of N [[RowBlock]]s, the
    * `n`-th with mode `n`'s block `b` (empty if it holds no entries), so
    * every entry is stored N times. Its task reads every input partition,
    * in order, twice. The first pass checks every entry ([[decodeChecked]]),
    * counts each mode's rows, and sums `x²` per input partition, adding the
    * partitions' sums in order; the task adds the entry count and `Σ x²` to
    * `sums`, and turns each mode's counts into its rows' first ranks. The
    * second pass ranks every entry in every mode, by its row's next rank,
    * and keeps it where the rank falls in the task's slice. Each block is
    * then sorted ([[sortedBlock]]). A partition carries the input's
    * partitions (as Spark's `CoalescedRDD` does), because an executor cannot
    * compute `input.partitions` itself. The checkpoint drops `sums` with the
    * input's lineage, so the tasks that read the blocks do not carry it.
    */
  private final class BlockScan(input: RDD[InternalRow], dims: Array[Int], T: Int,
                                private var sums: CollectionAccumulator[(Long, Double)])
      extends RDD[Array[RowBlock]](input.sparkContext, Seq(new AllPartitions(input))) {
    protected def getPartitions: Array[Partition] = {
      val inputs = firstParent[InternalRow].partitions
      Array.tabulate[Partition](T)(new ScanPartition(_, inputs))
    }

    override protected def clearDependencies(): Unit = {
      super.clearDependencies()
      sums = null
    }

    def compute(split: Partition, ctx: TaskContext): Iterator[Array[RowBlock]] = {
      val b = split.index
      val inputs = split.asInstanceOf[ScanPartition].inputs
      val order = dims.length
      val e = new Array[Int](order)
      // mode n's row i: its entry count, then the rank of its next entry
      val rank = dims.map(d => new Array[Long](d))
      var nnz = 0L
      var sumSq = 0.0
      inputs.foreach { p =>
        val rs = firstParent[InternalRow].iterator(p, ctx)
        var s = 0.0
        while (rs.hasNext) {
          val v = decodeChecked(dims, rs.next(), e)
          var n = 0
          while (n < order) { rank(n)(e(n)) += 1; n += 1 }
          s += v * v
          nnz += 1
        }
        sumSq += s
      }
      sums.add((nnz, sumSq))
      val lo = b * nnz / T
      val hi = (b + 1) * nnz / T
      // a row's first rank: the entries of the rows below it
      rank.foreach { c =>
        var r = 0L
        var i = 0
        while (i < c.length) { val k = c(i); c(i) = r; r += k; i += 1 }
      }
      val idx = Array.fill(order)(new mutable.ArrayBuilder.ofInt)
      val values = Array.fill(order)(new mutable.ArrayBuilder.ofDouble)
      inputs.foreach { p =>
        val rs = firstParent[InternalRow].iterator(p, ctx)
        while (rs.hasNext) {
          val v = decode(rs.next(), e)
          var n = 0
          while (n < order) {
            val r = rank(n)(e(n))
            rank(n)(e(n)) = r + 1
            if (r >= lo && r < hi) { idx(n) ++= e; values(n) += v }
            n += 1
          }
        }
      }
      // Row i's ranks are now [rank(n)(i − 1), rank(n)(i)), from 0 for row 0:
      // it is split when they cross the slice's bounds.
      Iterator.single(Array.tabulate(order) { n =>
        val end = rank(n)
        sortedBlock(n, dims(n), order, idx(n).result(), values(n).result(),
          i => (if (i == 0) 0L else end(i - 1)) < lo || end(i) > hi)
      })
    }
  }

  private final class ScanPartition(val index: Int, val inputs: Array[Partition]) extends Partition

  /** Each partition of a [[BlockScan]] depends on every partition of `rdd`. */
  private final class AllPartitions(rdd: RDD[InternalRow]) extends NarrowDependency[InternalRow](rdd) {
    def getParents(partitionId: Int): Seq[Int] = rdd.partitions.indices
  }

  /** Sorts one block's entries, given in input order (entry `e` has indices
    * `idx(e·N until (e+1)·N)` and value `values(e)`), by the mode-`n` index
    * (in `[0, dim)`), then the other indices in ascending mode order. The
    * sort is stable, so entries with the same indices keep their input
    * order. The order of the entries, and with it every row's summation
    * order, then does not depend, for a row that is not split, on T. It is
    * a least-significant-digit radix sort: one stable counting sort per
    * mode, on the other modes from the last to the first, then on `i_n`.
    * No entries give the empty block.
    */
  def sortedBlock(n: Int, dim: Int, order: Int, idx: Array[Int], values: Array[Double],
                  isSplit: Int => Boolean): RowBlock = {
    val m = values.length
    if (m == 0) return RowBlock.Empty
    // each mode's index range in this block; mode n's is [0, dim)
    val range = new Array[Int](order)
    var e = 0
    while (e < m) {
      var k = 0
      while (k < order) { range(k) = math.max(range(k), idx(e * order + k) + 1); k += 1 }
      e += 1
    }
    range(n) = dim
    var perm = Array.range(0, m)
    var next = new Array[Int](m)
    for (k <- (order - 1 to 0 by -1).filter(_ != n) :+ n) {
      countingSort(idx, order, k, range(k), perm, next)
      val t = perm; perm = next; next = t
    }
    val sortedIdx = new Array[Int](m * order)
    val sortedValues = new Array[Double](m)
    val parts = new mutable.ArrayBuilder.ofInt
    e = 0
    while (e < m) {
      val from = perm(e) * order
      var k = 0
      while (k < order) { sortedIdx(e * order + k) = idx(from + k); k += 1 }
      sortedValues(e) = values(perm(e))
      val i = sortedIdx(e * order + n)
      if ((e == 0 || sortedIdx((e - 1) * order + n) != i) && isSplit(i)) parts += i
      e += 1
    }
    RowBlock(sortedIdx, sortedValues, parts.result())
  }

  /** Writes the entries `from` (positions into `idx`, N indices apiece) to
    * `to` in ascending order of their mode-`k` index, which lies in
    * `[0, range)`; entries with equal indices keep their order in `from`.
    */
  private def countingSort(idx: Array[Int], order: Int, k: Int, range: Int, from: Array[Int], to: Array[Int]): Unit = {
    val next = new Array[Int](range + 1)
    var e = 0
    while (e < from.length) { next(idx(from(e) * order + k) + 1) += 1; e += 1 }
    var i = 0
    while (i < range) { next(i + 1) += next(i); i += 1 }
    e = 0
    while (e < from.length) {
      val x = from(e)
      val r = idx(x * order + k)
      to(next(r)) = x
      next(r) += 1
      e += 1
    }
  }

  /** Persists and counts an RDD in a job described by `description`
    * ([[release]]ing it again if the count fails). The local checkpoint
    * truncates its lineage: a Pres table neither keeps the broadcasts of
    * earlier tables alive nor grows an unbounded chain of patch closures
    * across iterations, and a task over the row blocks does not deserialize
    * the input's plan.
    */
  def materialize[A](p: RDD[A], description: String): RDD[A] = {
    p.persist(StorageLevel.MEMORY_AND_DISK)
    p.localCheckpoint()
    try Jobs.run(p, description, new Jobs.Count[A])
    catch { case e: Throwable => release(p); throw e }
    p
  }

  /** Unpersists an RDD that [[materialize]] made, without blocking. Spark's
    * `RDD.unpersist` logs a WARN for every locally checkpointed RDD, here
    * one per fit or Pres table, so this calls the unpersist underneath it.
    */
  def release(p: RDD[_]): Unit = SparkBridge.unpersist(p)
}
