package repro.eval

import repro.{Oracle, SparkSpec}

class RecallSpec extends SparkSpec {

  import spark.implicits._

  private def df(rows: (Long, Long, Int)*) = rows.toDF("qid", "id", "rank")

  test("perfect agreement gives recall 1.0") {
    val t = df((1L, 10L, 1), (1L, 11L, 2), (2L, 20L, 1), (2L, 21L, 2))
    assert(Recall.atK(t, t, 2) === 1.0)
  }

  test("no overlap gives recall 0.0") {
    val r = df((1L, 99L, 1), (1L, 98L, 2))
    val t = df((1L, 10L, 1), (1L, 11L, 2))
    assert(Recall.atK(r, t, 2) === 0.0)
  }

  test("half overlap gives recall 0.5") {
    val r = df((1L, 10L, 1), (1L, 99L, 2))
    val t = df((1L, 10L, 1), (1L, 11L, 2))
    assert(Recall.atK(r, t, 2) === 0.5)
  }

  test("rank cutoff is honored: matches beyond k do not count") {
    val r = df((1L, 10L, 1), (1L, 11L, 2), (1L, 12L, 3))
    val t = df((1L, 12L, 1), (1L, 10L, 2), (1L, 11L, 3))
    // at k=1: result {10}, truth {12} -> 0
    assert(Recall.atK(r, t, 1) === 0.0)
    // at k=3: full overlap -> 1
    assert(Recall.atK(r, t, 3) === 1.0)
  }

  test("averages over queries") {
    val r = df((1L, 10L, 1), (2L, 99L, 1))
    val t = df((1L, 10L, 1), (2L, 20L, 1))
    assert(Recall.atK(r, t, 1) === 0.5)
  }

  test("truth shorter than k uses the truth count as denominator") {
    val r = df((1L, 10L, 1), (1L, 11L, 2), (1L, 12L, 3))
    val t = df((1L, 10L, 1), (1L, 11L, 2)) // only 2 true neighbors exist
    assert(Recall.atK(r, t, 3) === 1.0)
  }

  test("empty truth gives recall 0.0 (not NaN)") {
    val r = df((1L, 10L, 1))
    val t = Seq.empty[(Long, Long, Int)].toDF("qid", "id", "rank")
    assert(Recall.atK(r, t, 5) === 0.0)
  }

  test("atKs computes every cutoff") {
    val r = df((1L, 10L, 1), (1L, 99L, 2))
    val t = df((1L, 10L, 1), (1L, 11L, 2))
    val m = Recall.atKs(r, t, Seq(1, 2))
    assert(m(1) === 1.0)
    assert(m(2) === 0.5)
    // A match whose two ranks straddle the cutoff counts only once k covers both.
    val swapped = df((1L, 11L, 1), (1L, 10L, 2))
    val s = Recall.atKs(swapped, t, Seq(1, 2))
    assert(s(1) === 0.0)
    assert(s(2) === 1.0)
  }

  test("matches the DuckDB oracle on a random instance") {
    val rng = new java.util.Random(1L)
    val rows = for (q <- 1L to 5L; rank <- 1 to 4)
      yield (q, rng.nextInt(10).toLong, rank)
    val truthRows = for (q <- 1L to 5L; rank <- 1 to 4)
      yield (q, rng.nextInt(10).toLong, rank)
    // dedupe (qid, id) pairs so the join is well-defined, as in real results
    val r = rows.distinctBy(x => (x._1, x._2)).toDF("qid", "id", "rank")
    val t = truthRows.distinctBy(x => (x._1, x._2)).toDF("qid", "id", "rank")
    val got = Recall.atK(r, t, 3)
    Oracle.assertEquivalent(
      Seq(got).toDF("recall"),
      """SELECT CAST((SELECT COUNT(*) FROM r JOIN t ON r.qid = t.qid AND r.id = t.id
        |             WHERE CAST(r.rank AS INT) <= 3 AND CAST(t.rank AS INT) <= 3) AS DOUBLE)
        |       / (SELECT COUNT(*) FROM t WHERE CAST(rank AS INT) <= 3) AS recall""".stripMargin,
      "r" -> r, "t" -> t,
    )
  }
}
