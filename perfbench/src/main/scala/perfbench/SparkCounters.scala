package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerDrain
import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer

/** Spark work done in one interval: jobs, stages, tasks and task metrics. */
final case class SparkCounts(
    jobs: Long, stages: Long, tasks: Long,
    taskBusyMs: Long, gcMs: Long,
    shuffleReadBytes: Long, shuffleWriteBytes: Long, spillBytes: Long,
    jobIntervals: Seq[(Long, Long)]) {

  /** Milliseconds of [fromMs, toMs] during which no job was running. */
  def idleMs(fromMs: Long, toMs: Long): Long = {
    var covered = 0L
    var reach   = fromMs
    jobIntervals.sortBy(_._1).foreach { case (s0, e0) =>
      val s = math.max(s0, reach)
      val e = math.min(e0, toMs)
      if (e > s) { covered += e - s; reach = e }
    }
    (toMs - fromMs) - covered
  }
}

/** Listener that counts the Spark jobs, stages and tasks of the interval
  * between [[reset]] and [[snapshot]].
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private var jobs, stages, tasks, busy, gc, shRead, shWrite, spill = 0L
  private val jobStarts = scala.collection.mutable.LongMap.empty[Long]
  private val intervals = ArrayBuffer.empty[(Long, Long)]

  def attach(): Unit = sc.addSparkListener(this)
  def detach(): Unit = { ListenerDrain(sc); sc.removeSparkListener(this) }

  def reset(): Unit = {
    ListenerDrain(sc)
    synchronized {
      jobs = 0; stages = 0; tasks = 0; busy = 0; gc = 0; shRead = 0; shWrite = 0; spill = 0
      jobStarts.clear(); intervals.clear()
    }
  }

  def snapshot(): SparkCounts = {
    ListenerDrain(sc)
    synchronized {
      SparkCounts(jobs, stages, tasks, busy, gc, shRead, shWrite, spill, intervals.toSeq)
    }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    jobStarts(e.jobId.toLong) = e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStarts.remove(e.jobId.toLong).foreach(s => intervals += ((s, e.time)))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      busy    += m.executorRunTime
      gc      += m.jvmGCTime
      shRead  += m.shuffleReadMetrics.totalBytesRead
      shWrite += m.shuffleWriteMetrics.bytesWritten
      spill   += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }
}
