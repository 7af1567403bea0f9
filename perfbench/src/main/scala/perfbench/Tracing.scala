package perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart,
  SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** One closed interval on the driver thread; `parent` is -1 at the top. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Records one span per call the benchmark makes into the system. Spans stay
  * in memory until the run ends. While a span is open its id is the Spark
  * job group, so [[SparkTrace]] can hang the jobs it launches under it.
  * When disabled, [[apply]] only runs its body.
  */
final class Tracer {
  var enabled = false
  private val closed = mutable.ArrayBuffer.empty[Span]
  private var open: List[(Int, String, Long)] = Nil
  private var nextId = 0

  def apply[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.fold(-1)(_._1)
      open = (id, name, System.nanoTime()) :: open
      jobGroup(Some((id, name)))
      try body
      finally {
        closed += Span(id, parent, name, open.head._3, System.nanoTime())
        open = open.tail
        jobGroup(open.headOption.map(o => (o._1, o._2)))
      }
    }

  private def jobGroup(span: Option[(Int, String)]): Unit =
    SparkSession.getActiveSession.foreach { s =>
      span match {
        case Some((id, name)) => s.sparkContext.setJobGroup(id.toString, name)
        case None             => s.sparkContext.clearJobGroup()
      }
    }

  def spans: Seq[Span] = closed.sortBy(_.id).toSeq

  def named(name: String): Seq[Span] = spans.filter(_.name == name)

  /** The nearest span named `name` among `id` and its ancestors. */
  def ancestor(id: Int, name: String): Option[Span] = {
    val byId = closed.iterator.map(s => s.id -> s).toMap
    Iterator.iterate(byId.get(id))(_.flatMap(s => byId.get(s.parent)))
      .takeWhile(_.isDefined).flatten.find(_.name == name)
  }

  /** Self time per span name: duration minus the time its children cover.
    * Children never overlap, as all spans open on the driver thread.
    */
  def selfMs: Seq[(String, Double, Int)] = {
    val childMs = closed.groupMapReduce(_.parent)(_.ms)(_ + _)
    closed.groupBy(_.name).toSeq.map { case (name, ss) =>
      (name, ss.map(s => s.ms - childMs.getOrElse(s.id, 0.0)).sum, ss.size)
    }.sortBy(-_._2)
  }
}

/** A finished Spark task, with the span whose job group launched it. */
final case class TaskRec(span: Int, stage: Int, durationMs: Long, runMs: Long, gcMs: Long,
                         shuffleWriteBytes: Long)

/** A finished Spark stage, with the span whose job group launched it. */
final case class StageRec(span: Int, stage: Int, name: String, tasks: Int, runMs: Long,
                          wallMs: Long)

/** The benchmark's own listener: records every job, stage and task of one
  * SparkContext and attributes them to spans by job group. Read it only
  * after the context has stopped, which drains the listener bus.
  */
final class SparkTrace extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, Int]
  val jobs = mutable.ArrayBuffer.empty[(Int, Int)] // (job id, span)
  val stages = mutable.ArrayBuffer.empty[StageRec]
  val tasks = mutable.ArrayBuffer.empty[TaskRec]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties)
      .flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .flatMap(_.toIntOption).getOrElse(-1)
    jobs += ((e.jobId, span))
    e.stageIds.foreach(s => if (!stageSpan.contains(s)) stageSpan(s) = span)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    val run = Option(i.taskMetrics).fold(0L)(_.executorRunTime)
    val wall = (for (a <- i.submissionTime; b <- i.completionTime) yield b - a).getOrElse(0L)
    stages += StageRec(stageSpan.getOrElse(i.stageId, -1), i.stageId, i.name, i.numTasks, run, wall)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = Option(e.taskMetrics)
    tasks += TaskRec(stageSpan.getOrElse(e.stageId, -1), e.stageId, e.taskInfo.duration,
      m.fold(0L)(_.executorRunTime), m.fold(0L)(_.jvmGCTime),
      m.fold(0L)(_.shuffleWriteMetrics.bytesWritten))
  }
}
