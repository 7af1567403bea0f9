package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.VectorData
import repro.core.{Distance, HnswParams}
import repro.lanns.Indexer
import repro.segment.{SegmenterLearner, SegmenterSpec}

/** Generic LANNS index build (Figure 6): generates a clustered dataset,
  * optionally pre-learns a segmenter, and builds the two-level partitioned
  * index under the output directory. An unknown method, or an RH/APD
  * segment count that is not a power of two, fails before Spark starts.
  *
  * Usage: spark-submit --class repro.jobs.BuildIndex <jar> \
  *          <outDir> [n=40000] [dim=32] [shards=2] [segments=4] \
  *          [method=APD|RH|RS] [alpha=0.15] [executors=8]
  */
object BuildIndex {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: BuildIndex <outDir> [n] [dim] [shards] [segments] [method] [alpha] [executors]")
    val outDir = args(0)
    def arg(i: Int, d: String) = if (args.length > i) args(i) else d
    val n = arg(1, "40000").toLong
    val dim = arg(2, "32").toInt
    val shards = arg(3, "2").toInt
    val spec = SegmenterSpec.parse(arg(5, "APD"), arg(4, "4").toInt, arg(6, "0.15").toDouble)
    val executors = arg(7, "8").toInt

    val spark = SparkSession.builder.appName("lanns-build-index").getOrCreate()
    val data =
      VectorData.clustered(spark, n, dim, nClusters = math.max(8, (n / 400).toInt), seed = 101L)
    val segmenter = spec.learn(SegmenterLearner.sample(data, 20000, 9L), dim, seed = 33L)
    val meta = Indexer.build(data, dim, shards, segmenter, Distance.Euclidean,
      HnswParams(), outDir, executors)
    println(s"built ${meta.indexes.size} indices, ${meta.totalCount} vectors -> $outDir")
    spark.stop()
  }
}
