package repro.vcbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark listener registered around one traced pass.
  *
  * Records every job's interval and the library layer that submitted it,
  * plus stage, task, task-time and shuffle totals. The layer comes from
  * the job's call site (the stack of the thread that ran the action), so
  * the library needs no instrumentation of its own. A job whose call site
  * names no library frame is a broadcast that Spark runs on its own thread
  * while planning the query of the next job the library submits; it takes
  * that job's layer (the previous job's, if it is the last).
  *
  * Listener events arrive asynchronously; [[drain]] submits a marker job
  * and waits for its end event, after which every earlier event has been
  * delivered (the bus is FIFO). The marker's own events are not counted.
  */
final class SparkTrace extends SparkListener {

  private val open   = mutable.Map.empty[Int, (Long, String)]
  private val closed = mutable.ArrayBuffer.empty[(Long, Long, String)]
  private val markerStages = mutable.Set.empty[Int]
  private var markerJob = -1
  private val markerDone = new CountDownLatch(1)

  private var stages = 0L
  private var tasks = 0L
  private var taskMs = 0L
  private var shuffleBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val desc = Option(e.properties).map(_.getProperty("spark.job.description")).orNull
    if (desc == SparkTrace.Marker) {
      markerJob = e.jobId
      markerStages ++= e.stageIds
    } else {
      val site = e.stageInfos.sortBy(-_.stageId).headOption.map(_.details).getOrElse("")
      open(e.jobId) = (e.time, SparkTrace.layerOf(site))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == markerJob) markerDone.countDown()
    else open.remove(e.jobId).foreach { case (start, layer) => closed += ((start, e.time, layer)) }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (!markerStages(e.stageInfo.stageId)) stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages(e.stageId)) {
      tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        taskMs += m.executorRunTime
        shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Wait until every event posted before this call has been handled. */
  def drain(sc: SparkContext): Unit = {
    sc.setJobDescription(SparkTrace.Marker)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setJobDescription(null)
    require(markerDone.await(60, TimeUnit.SECONDS), "Spark listener bus did not drain")
  }

  /** Totals and per-job `[start_ms, end_ms, layer]` intervals. */
  def record: Map[String, Any] = synchronized {
    val byStart = closed.toSeq.sortBy(_._1)
    val layers = byStart.map(_._3)
    val next = layers.scanRight("other")((l, after) => if (l != "other") l else after)
    val prev = layers.scanLeft("other")((before, l) => if (l != "other") l else before).tail
    val jobs = byStart.indices.map { i =>
      val (start, end, layer) = byStart(i)
      (start, end, Seq(layer, next(i), prev(i)).find(_ != "other").getOrElse("other"))
    }
    Map("jobs" -> jobs, "stages" -> stages, "tasks" -> tasks, "task_ms" -> taskMs,
        "shuffle_bytes" -> shuffleBytes)
  }
}

object SparkTrace {

  val Marker = "vcbench-drain"

  /** Library layer of a job, from its call site. Engine frames win over
    * the collection loop that calls them; the loop's own jobs (δ
    * checkpoint, E_t maintenance, prepare) are "upkeep".
    */
  def layerOf(callSite: String): String =
    if (callSite.contains("repro.diff.DifferentialRun")) "diff"
    else if (callSite.contains("repro.diff.ScratchRun")) "scratch"
    else if (callSite.contains("repro.algorithms.Scc$.scratch") ||
             callSite.contains("repro.algorithms.Scc$.incremental")) "scc"
    else if (callSite.contains("repro.diff.CollectionExecutor") ||
             callSite.contains("repro.algorithms.Scc")) "upkeep"
    else if (callSite.contains("repro.views") || callSite.contains("repro.ordering")) "views"
    else "other"
}
