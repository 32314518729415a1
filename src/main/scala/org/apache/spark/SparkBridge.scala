package org.apache.spark

import org.apache.spark.rdd.RDD

/** Access to what Spark keeps package-private. */
object SparkBridge {

  /** Drops `rdd`'s cached blocks without blocking, as `RDD.unpersist` does
    * but without its WARN for a locally checkpointed RDD.
    */
  def unpersist(rdd: RDD[_]): Unit = rdd.sparkContext.unpersistRDD(rdd.id, blocking = false)
}
