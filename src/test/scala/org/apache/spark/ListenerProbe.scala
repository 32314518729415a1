package org.apache.spark

/** Test access to the listener bus, which Spark keeps package-private. */
object ListenerProbe {

  /** Returns once every event posted so far has reached every listener. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
