package perfbench

import org.apache.spark.scheduler._

import scala.collection.mutable

/** Tracks the bytes of RDD blocks held by the block manager (memory plus
  * disk) from `SparkListenerBlockUpdated`, and their peak since the last
  * [[resetPeak]]. Always registered: `cached_mb_peak` is end-to-end.
  */
final class BlockListener extends SparkListener {
  private val sizes = mutable.HashMap.empty[String, Long]
  private var total = 0L
  private var peak = 0L

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    if (info.blockId.isRDD) {
      val key = s"${info.blockManagerId.executorId}/${info.blockId.name}"
      val size = if (info.storageLevel.isValid) info.memSize + info.diskSize else 0L
      total += size - sizes.getOrElse(key, 0L)
      if (size == 0L) sizes.remove(key) else sizes(key) = size
      peak = math.max(peak, total)
    }
  }

  /** Starts a new peak window at the current total; returns that total. */
  def resetPeak(): Long = synchronized { peak = total; total }

  def peakBytes: Long = synchronized(peak)
}

/** Phase of a fit, named after the result-stage call site of each job. */
object Phase {
  val ModeUpdate = "mode_update"
  val ErrorPass = "error_pass"
  val RBeta = "r_beta"
  val Materialize = "materialize"
  val Other = "other"
  val all: Seq[String] = Seq(ModeUpdate, ErrorPass, RBeta, Materialize, Other)

  /** `callSite` is a short call site such as `collectAsMap at PTucker.scala:123`. */
  def of(callSite: String): String = callSite.replaceAll(":\\d+$", "") match {
    case "collectAsMap at PTucker.scala"    => ModeUpdate
    case "treeReduce at TuckerModel.scala"  => ErrorPass
    case "treeAggregate at PTucker.scala"   => RBeta
    case "count at PTucker.scala"           => Materialize
    case _                                  => Other
  }
}

/** One Spark job of a traced fit with its task-metric totals. */
final class JobRecord(val id: Int, val phase: String, val startMs: Long) {
  var endMs: Long = startMs
  var tasks = 0
  var runMs = 0L
  var cpuNs = 0L
  var gcMs = 0L
  var shuffleBytes = 0L
  var shuffleRecords = 0L
  var peakExecBytes = 0L

  def wallMs: Long = endMs - startMs
}

/** Per-job task metrics for jobs submitted while the driver thread carries
  * the [[PhaseTracer.FitProperty]] local property. Registered only in the
  * traced mode and only around traced fits.
  */
final class PhaseTracer extends SparkListener {
  private val jobs = mutable.HashMap.empty[String, mutable.ArrayBuffer[JobRecord]]
  private val byId = mutable.HashMap.empty[Int, JobRecord]
  private val stageJob = mutable.HashMap.empty[Int, JobRecord]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val fit = Option(e.properties).map(_.getProperty(PhaseTracer.FitProperty)).orNull
    if (fit != null) {
      val callSite = e.stageInfos.maxBy(_.stageId).name
      val rec = new JobRecord(e.jobId, Phase.of(callSite), e.time)
      jobs.getOrElseUpdate(fit, mutable.ArrayBuffer.empty) += rec
      byId(e.jobId) = rec
      // A stage belongs to the first job that lists it; later jobs only skip it.
      e.stageInfos.foreach(s => if (!stageJob.contains(s.stageId)) stageJob(s.stageId) = rec)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    byId.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (rec <- stageJob.get(e.stageId); m <- Option(e.taskMetrics)) {
      rec.tasks += 1
      rec.runMs += m.executorRunTime
      rec.cpuNs += m.executorCpuTime
      rec.gcMs += m.jvmGCTime
      rec.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      rec.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      rec.peakExecBytes = math.max(rec.peakExecBytes, m.peakExecutionMemory)
    }
  }

  /** The jobs of one fit, in submission order. */
  def jobsOf(fit: String): Seq[JobRecord] = synchronized {
    jobs.getOrElse(fit, mutable.ArrayBuffer.empty).toSeq.sortBy(_.id)
  }
}

object PhaseTracer {
  val FitProperty = "perfbench.fit"
}
