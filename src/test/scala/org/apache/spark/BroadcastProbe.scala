package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** Test access to the driver's block manager, which Spark keeps
  * package-private.
  */
object BroadcastProbe {

  /** Ids of the broadcast variables whose value the driver still holds,
    * except Spark's own task binaries: those are serialized byte arrays,
    * which its cleaner drops only after a garbage collection.
    */
  def liveIds(sc: SparkContext): Set[Long] = {
    val bm = sc.env.blockManager
    bm.getMatchingBlockIds {
      case BroadcastBlockId(_, "") => true
      case _                       => false
    }.collect {
      case id: BroadcastBlockId
        if !bm.getLocalValues(id).exists(_.data.toList.forall(_.isInstanceOf[Array[Byte]])) =>
        id.broadcastId
    }.toSet
  }
}
