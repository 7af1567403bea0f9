package perfbench

import java.io.{File, PrintWriter}
import scala.util.control.NonFatal

/** Entry point of one benchmark run (see perfbench/README.md):
  *
  * {{{
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *   --work-dir <dir> --git-sha <sha> --source-sha <sha>
  * }}}
  *
  * Prints the run's metadata as one JSON line, then the result line
  * `{"correct", "attempted", "failed", "metrics"}` last, and writes the full
  * report (metadata, spans, stages, self times) to
  * `<work-dir>/report-<workload>-<seed>-trace<0|1>.json`. Exits non-zero
  * without a result line if the run cannot complete or its ground truth is
  * wrong.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, fail(s"missing --$k"))
    val w = Workloads.byName(need("workload"))
      .getOrElse(fail(s"unknown workload ${need("workload")}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val seed = need("seed").toLong
    val seconds = need("seconds").toInt
    val traced = need("trace") == "1"
    val workDir = new File(need("work-dir"))
    workDir.mkdirs()

    val code =
      try {
        val (result, report) = new Bench(w, seed, seconds, traced, workDir).run()
        val meta = Obj(Seq("git_sha" -> opts.get("git-sha"), "source_sha" -> opts.get("source-sha")) ++
          report.fields.filterNot(f => Set("spans", "stages", "self_ms")(f._1)))
        val full = Obj(meta.fields ++ report.fields.filter(f => Set("spans", "stages", "self_ms")(f._1)) :+
          ("result" -> result))
        val out = new PrintWriter(new File(workDir, s"report-${w.name}-$seed-trace${need("trace")}.json"))
        try out.println(Json(full)) finally out.close()
        println(Json(Obj(Seq("run" -> meta))))
        println(Json(result))
        0
      } catch {
        case e: GroundTruthMismatch =>
          Console.err.println(s"perfbench: ${e.getMessage}")
          3
        case NonFatal(e) =>
          e.printStackTrace()
          1
      }
    sys.exit(code)
  }

  private def fail(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    sys.exit(2)
  }
}
