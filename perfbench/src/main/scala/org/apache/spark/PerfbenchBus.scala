package org.apache.spark

/** Spark keeps its listener-bus flush package-private; the benchmark needs
  * it so that it reads its listeners only after every event of a fit has
  * been delivered.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
