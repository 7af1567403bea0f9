package repro.core

import java.nio.ByteBuffer
import java.util.zip.CRC32
import org.scalatest.funsuite.AnyFunSuite

/** Pins the exact graphs and answers of fixed small indexes.
  *
  * The digests were recorded from the original object-per-node HNSW, before
  * its storage moved to flat primitive arrays: for a given insertion order
  * the index must write the same bytes and return the same neighbours, with
  * the same distance bits, as it did then. Each fixture has nodes above
  * level 0, over-full lists that were shrunk, exact duplicate vectors (ties
  * in every heap) and, for cosine, a zero vector.
  */
class HnswGoldenSpec extends AnyFunSuite {

  import HnswGoldenSpec._

  private def check(name: String, idx: HnswIndex, bytesCrc: Long, answersCrc: Long): Unit = {
    val bytes = idx.toBytes
    val layout = IndexFileLayout.parse(bytes)
    assert(layout.nodes.exists(_.level > 0), s"$name: no node above level 0")
    assert(layout.maxLayer0Degree === 2 * idx.params.m, s"$name: no layer-0 list reached its cap")
    assert(layout.hasPrunedLink, s"$name: no over-full list was shrunk")
    assert(crc(bytes) === bytesCrc, s"$name: index bytes changed")
    assert(answers(idx, queries(idx.dim, 11L)) === answersCrc, s"$name: search answers changed")
    val back = HnswIndex.fromBytes(bytes)
    assert(crc(back.toBytes) === bytesCrc, s"$name: reload does not rewrite the same bytes")
    assert(answers(back, queries(idx.dim, 11L)) === answersCrc, s"$name: reloaded answers changed")
  }

  test("an L2 index writes the recorded bytes and returns the recorded answers") {
    val idx = HnswIndex.build(8, Distance.Euclidean, HnswParams(m = 4, efConstruction = 24, efSearch = 16, seed = 7L),
      fixture(700, 8, seed = 1L).iterator)
    check("l2", idx, bytesCrc = L2Bytes, answersCrc = L2Answers)
  }

  test("a cosine index writes the recorded bytes and returns the recorded answers") {
    val idx = HnswIndex.build(12, Distance.Cosine, HnswParams(m = 5, efConstruction = 30, efSearch = 20, seed = 11L),
      fixture(600, 12, seed = 2L).iterator)
    check("cosine", idx, bytesCrc = CosineBytes, answersCrc = CosineAnswers)
  }

  test("a file written by the original Indexer.writeIndexFile loads to the same bytes and answers") {
    val path = getClass.getResource(ParentFile).getPath
    val bytes = java.nio.file.Files.readAllBytes(java.nio.file.Paths.get(path))
    assert(crc(bytes) === ParentFileBytes, "fixture file changed")
    val idx = repro.lanns.Indexer.readIndexFile(path)
    assert(idx.distance === Distance.Cosine)
    assert(idx.size === 250)
    assert(crc(idx.toBytes) === ParentFileBytes)
    assert(answers(idx, queries(10, 12L)) === ParentFileAnswers)
  }
}

object HnswGoldenSpec {

  // Recorded from the original object-per-node implementation.
  val L2Bytes           = 3715402557L
  val L2Answers         = 2249811185L
  val CosineBytes       = 2059070952L
  val CosineAnswers     = 2565556338L
  val ParentFile        = "/golden/cosine-250x10.hnsw"
  val ParentFileBytes   = 1937345911L
  val ParentFileAnswers = 3034583875L

  /** `n` clustered points; every 10th is an exact copy of its predecessor
    * and point 5 is the zero vector.
    */
  def fixture(n: Int, dim: Int, seed: Long): IndexedSeq[(Long, Array[Float])] = {
    val rng = new java.util.Random(seed)
    val centers = Array.fill(6)(Array.fill(dim)(rng.nextFloat() * 2 - 1))
    val out = new scala.collection.mutable.ArrayBuffer[(Long, Array[Float])](n)
    (0 until n).foreach { i =>
      val v =
        if (i == 5) new Array[Float](dim)
        else if (i % 10 == 9) out(i - 1)._2.clone()
        else {
          val c = centers(rng.nextInt(centers.length))
          Array.tabulate(dim)(j => c(j) + (rng.nextGaussian() * 0.2).toFloat)
        }
      out += ((1000L + 3L * i) -> v)
    }
    out.toIndexedSeq
  }

  /** 40 queries: the zero vector and 39 Gaussian points. */
  def queries(dim: Int, seed: Long): Seq[Array[Float]] = {
    val rng = new java.util.Random(seed)
    Seq(new Array[Float](dim)) ++ Seq.fill(39)(Array.fill(dim)((rng.nextGaussian() * 0.6).toFloat))
  }

  /** CRC32 over every answer at two (k, ef) points: result counts, ids and raw distance bits. */
  def answers(idx: HnswIndex, qs: Seq[Array[Float]]): Long = {
    val crc = new CRC32
    val bb = ByteBuffer.allocate(16)
    for ((k, ef) <- Seq((10, -1), (25, 60)); q <- qs) {
      val r = idx.search(q, k, ef)
      crc.update(r.length)
      r.foreach { nb =>
        bb.clear()
        bb.putLong(nb.id).putLong(java.lang.Double.doubleToRawLongBits(nb.dist))
        crc.update(bb.array())
      }
    }
    crc.getValue
  }

  def crc(bytes: Array[Byte]): Long = {
    val c = new CRC32
    c.update(bytes)
    c.getValue
  }
}
