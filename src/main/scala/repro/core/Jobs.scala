package repro.core

import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.rdd.RDD

import scala.reflect.ClassTag

/** One partition's share of a job that [[Jobs.run]] submits. Subclasses are
  * named classes, never lambdas (see [[Jobs.run]]).
  */
private[core] abstract class PartitionTask[T, R] extends ((TaskContext, Iterator[T]) => R) with Serializable

/** How a fit submits its Spark jobs, and how it tags them. */
private[core] object Jobs {

  /** The local property that names a job in Spark's UI and listener events. */
  val DescriptionKey = "spark.job.description"

  /** A fit job's description: `ptucker/i<iter>/m<mode>/<phase>`. The set-up
    * jobs before the first iteration carry `i0/m0`; an iteration's jobs
    * carry its number (from 1) and the mode whose entries they read.
    */
  def tag(iter: Int, mode: Int, phase: String): String = s"ptucker/i$iter/m$mode/$phase"

  /** Runs `body` with the job description `description`, then restores the
    * caller's description, also when `body` throws.
    */
  def described[A](sc: SparkContext, description: String)(body: => A): A = {
    val caller = sc.getLocalProperty(DescriptionKey)
    sc.setLocalProperty(DescriptionKey, description)
    try body
    finally sc.setLocalProperty(DescriptionKey, caller)
  }

  /** Runs `task` on every partition of `rdd` in one job described by
    * `description`, and returns the results in partition order.
    * `task` is a named class because Spark's ClosureCleaner returns at once
    * for one, but reads and parses a lambda's declaring class file on every
    * job (DESIGN.md §2, "Job submission").
    */
  def run[T, R: ClassTag](rdd: RDD[T], description: String, task: PartitionTask[T, R]): Array[R] =
    described(rdd.sparkContext, description)(rdd.sparkContext.runJob(rdd, task))

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
