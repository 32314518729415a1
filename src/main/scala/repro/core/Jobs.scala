package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD

import scala.reflect.ClassTag

/** One partition's share of a job that [[Jobs.run]] submits. Subclasses are
  * named classes, never lambdas (see [[Jobs.run]]).
  */
private[repro] abstract class PartitionTask[T, R] extends ((TaskContext, Iterator[T]) => R) with Serializable

/** How a fit submits its Spark jobs, and how it tags them. */
private[repro] object Jobs {

  /** The local property that names a job in Spark's UI and listener events. */
  val DescriptionKey = "spark.job.description"

  /** A fit job's description: `<method>/i<iter>/m<mode>/<phase>`, where
    * `method` is `ptucker`, `hooi` or `wopt` (`model` for an evaluation of
    * a returned model, `model/i0/m0/error`). The set-up jobs before the
    * first iteration carry `i0/m0`; an iteration's jobs carry its number
    * (from 1) and the mode whose entries they read.
    */
  def tag(method: String, iter: Int, mode: Int, phase: String): String = s"$method/i$iter/m$mode/$phase"

  /** Runs `task` on every partition of `rdd` in one job described by
    * `description`, and returns the results in partition order. The
    * caller's description is restored afterwards, also when the job fails.
    * `task` is a named class because Spark's ClosureCleaner returns at once
    * for one, but reads and parses a lambda's declaring class file on every
    * job (DESIGN.md §2, "Job submission").
    */
  def run[T, R: ClassTag](rdd: RDD[T], description: String, task: PartitionTask[T, R]): Array[R] = {
    val sc = rdd.sparkContext
    val caller = sc.getLocalProperty(DescriptionKey)
    sc.setLocalProperty(DescriptionKey, description)
    try sc.runJob(rdd, task)
    finally sc.setLocalProperty(DescriptionKey, caller)
  }

  /** The number of elements in a partition; run for its side effect of
    * computing, and so persisting, the partition.
    */
  final class Count[T] extends PartitionTask[T, Long] {
    def apply(ctx: TaskContext, it: Iterator[T]): Long = {
      var n = 0L
      while (it.hasNext) { it.next(); n += 1 }
      n
    }
  }

  /** A partition's elements. */
  final class Collect[T: ClassTag] extends PartitionTask[T, Array[T]] {
    def apply(ctx: TaskContext, it: Iterator[T]): Array[T] = it.toArray
  }
}
