package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Recall@k against exact ground truth: the fraction of the true k nearest
  * neighbors present in the returned top-k (the paper's metric, §1).
  */
object Recall {

  /** Recall@k of `results` against `truth`; both are DataFrames with
    * columns (qid, id, rank) — ranks 1-based, as produced by
    * [[repro.lanns.Querier.search]] / [[repro.lanns.SparkBruteForce.search]].
    *
    * The denominator is the number of *truth* rows with rank ≤ k, so
    * queries near a dataset boundary (fewer than k true neighbors) are
    * handled exactly.
    */
  def atK(results: DataFrame, truth: DataFrame, k: Int): Double =
    atKs(results, truth, Seq(k))(k)

  /** Recall at several cutoffs in one pass (Tables 1 and 4 report
    * R@{1,5,10,15,50,100}): one join and one aggregation count the matches
    * at every cutoff, one aggregation over truth counts the denominators.
    */
  def atKs(results: DataFrame, truth: DataFrame, ks: Seq[Int]): Map[Int, Double] = {
    def upToMax(df: DataFrame) = df.filter(col("rank") <= ks.max).select("qid", "id", "rank")
    def countsAtOrUnder(ranks: DataFrame): Seq[Long] = {
      val row = ranks.select(ks.map(k => count(when(col("rank") <= k, 1))): _*).head()
      ks.indices.map(row.getLong)
    }
    val t = upToMax(truth)
    // A match counts at cutoff k once both its result rank and its true rank are ≤ k.
    val matched = upToMax(results).withColumnRenamed("rank", "rRank").join(t, Seq("qid", "id"))
      .select(greatest(col("rRank"), col("rank")).as("rank"))
    ks.lazyZip(countsAtOrUnder(matched)).lazyZip(countsAtOrUnder(t)).map { (k, hits, n) =>
      k -> (if (n == 0) 0.0 else hits.toDouble / n)
    }.toMap
  }
}
