package repro.experiments

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{Distance, QueryRow, VecRow}
import repro.eval.Recall
import repro.lanns.{LannsMeta, Querier, SparkBruteForce}

/** The scaffold every paper-table harness shares: a dataset's vectors and
  * queries, cached and materialized, their exact top-`k` ground truth from
  * the Spark brute force (§5.4), and a timed query of a LANNS index.
  */
final class Harness(spark: SparkSession, ds: DatasetSpec, k: Int) {
  val data: Dataset[VecRow] = ds.data(spark).cache()
  val size: Long = data.count()
  val queries: Dataset[QueryRow] = ds.queries(spark).cache()
  val nQueries: Long = queries.count()
  private val truth = SparkBruteForce
    .search(data, queries, k, Distance.Euclidean, numPartitions = 16)
    .cache()
  truth.count()

  /** Top-`k` of every query through `Querier.search`, cached and counted
    * inside the timing. Returns the recall at each of `ks` (none when `ks`
    * is empty) and the wall-clock ms.
    */
  def query(meta: LannsMeta, efSearch: Int, confidence: Option[Double], numExecutors: Int,
            ks: Seq[Int] = Nil, checkpoint: Option[String] = None): (Map[Int, Double], Long) = {
    val (res, ms) = Fmt.timed {
      val d = Querier.search(queries, meta, k, efSearch, confidence, numExecutors, checkpoint).cache()
      d.count()
      d
    }
    val recall = if (ks.isEmpty) Map.empty[Int, Double] else Recall.atKs(res, truth, ks)
    res.unpersist()
    (recall, ms)
  }

  def unpersist(): Unit = { truth.unpersist(); data.unpersist(); queries.unpersist() }
}
