package repro.lanns

import repro.SparkSpec
import repro.core.TaggedRow

class SlotsSpec extends SparkSpec {

  /** Rows of every (shard, segment) group, `sizes(shard·nSeg + segment)` each. */
  private def rows(shards: Int, nSeg: Int, sizes: Int => Int): Seq[TaggedRow] =
    for {
      s <- 0 until shards
      g <- 0 until nSeg
      i <- 0 until sizes(s * nSeg + g)
    } yield TaggedRow((s * nSeg + g) * 1000L + i, Array(i.toFloat), s, g)

  /** Groups found in each non-empty partition after packing. */
  private def placement(data: Seq[TaggedRow], nSeg: Int, e: Int): Map[Int, Set[(Int, Int)]] = {
    val session = spark
    import session.implicits._
    val packed = Slots.pack(data.toDS(), nSeg, e)(t => (t.shard, t.segment))
    assert(packed.getNumPartitions === e)
    packed
      .mapPartitionsWithIndex((p, it) => it.map(t => (p, (t.shard, t.segment))))
      .collect()
      .groupMap(_._1)(_._2)
      .view.mapValues(_.toSet).toMap
  }

  private def expected(shards: Int, nSeg: Int, e: Int): Map[Int, Set[(Int, Int)]] =
    (for (s <- 0 until shards; g <- 0 until nSeg) yield (s, g))
      .groupBy { case (s, g) => Slots.of(s, g, nSeg, e) }
      .view.mapValues(_.toSet).toMap

  test("with E >= groups, each non-empty partition holds exactly the groups of its own slot") {
    // The last slot holds almost every row: a sampled range partitioner
    // folds the small low slots into it.
    val data = rows(2, 2, g => if (g == 3) 400 else 3)
    Seq(4, 6).foreach { e =>
      assert(placement(data, 2, e) === expected(2, 2, e), s"E = $e")
    }
  }

  test("with E < groups, partition i holds exactly the groups of slot i") {
    val data = rows(3, 3, g => 5 + 7 * g)
    assert(placement(data, 3, 4) === expected(3, 3, 4))
  }

  test("slots wrap groups round-robin over E") {
    assert((0 until 6).map(g => Slots.of(g / 3, g % 3, 3, 4)) === Seq(0, 1, 2, 3, 0, 1))
  }
}
