package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HnswSerializationSpec extends AnyFunSuite {

  private val params = HnswParams(m = 8, efConstruction = 60, efSearch = 40, seed = 5L)

  private def sampleIndex(n: Int, dim: Int, dist: Distance = Distance.Euclidean): HnswIndex = {
    val rng = new java.util.Random(1L)
    HnswIndex.build(dim, dist, params,
      (0 until n).iterator.map(i => i.toLong -> Array.fill(dim)(rng.nextFloat())))
  }

  test("roundtrip preserves size, dim, params and level structure") {
    val idx = sampleIndex(300, 6)
    val back = HnswIndex.fromBytes(idx.toBytes)
    assert(back.size === idx.size)
    assert(back.dim === idx.dim)
    assert(back.params === idx.params)
    assert(back.maxLevel === idx.maxLevel)
    assert(back.distance === idx.distance)
  }

  test("roundtrip preserves search results exactly") {
    val idx = sampleIndex(500, 8)
    val back = HnswIndex.fromBytes(idx.toBytes)
    val rng = new java.util.Random(2L)
    (0 until 20).foreach { _ =>
      val q = Array.fill(8)(rng.nextFloat())
      assert(back.search(q, 15).toSeq === idx.search(q, 15).toSeq)
    }
  }

  test("roundtrip preserves cosine-distance indexes") {
    val idx = sampleIndex(200, 5, Distance.Cosine)
    val back = HnswIndex.fromBytes(idx.toBytes)
    val q = Array(0.5f, 0.1f, 0.2f, 0.9f, 0.3f)
    assert(back.search(q, 10).toSeq === idx.search(q, 10).toSeq)
  }

  test("empty index roundtrips") {
    val idx = HnswIndex.empty(3, Distance.Euclidean, params)
    val back = HnswIndex.fromBytes(idx.toBytes)
    assert(back.size === 0)
    assert(back.search(Array(0f, 0f, 0f), 5).isEmpty)
  }

  test("deserialized index can keep growing") {
    val idx = sampleIndex(100, 4)
    val back = HnswIndex.fromBytes(idx.toBytes)
    back.add(9999L, Array(0f, 0f, 0f, 0f))
    val r = back.search(Array(0f, 0f, 0f, 0f), 1, ef = 50)
    assert(r.head.id === 9999L)
  }

  test("corrupt magic is rejected") {
    val bytes = sampleIndex(10, 3).toBytes
    bytes(0) = 0x00
    intercept[IllegalArgumentException](HnswIndex.fromBytes(bytes))
  }

  test("external ids round-trip as written (not re-numbered)") {
    val idx = HnswIndex.empty(2, Distance.Euclidean, params)
    Seq(1000L, -5L, Long.MaxValue).zipWithIndex.foreach { case (id, i) =>
      idx.add(id, Array(i.toFloat, 0f))
    }
    val back = HnswIndex.fromBytes(idx.toBytes)
    val r = back.search(Array(0f, 0f), 3, ef = 10)
    assert(r.map(_.id).toSet === Set(1000L, -5L, Long.MaxValue))
  }

  test("serialized size grows linearly-ish with n") {
    val s100 = sampleIndex(100, 4).toBytes.length
    val s400 = sampleIndex(400, 4).toBytes.length
    assert(s400 > 2 * s100 && s400 < 8 * s100)
  }

  // ---- the loader rejects corrupt files with IllegalArgumentException ----

  private lazy val good = sampleIndex(300, 6).toBytes
  private lazy val layout = IndexFileLayout.parse(good)

  private def rejected(bytes: Array[Byte], hint: String): Unit = {
    val e = intercept[IllegalArgumentException](HnswIndex.fromBytes(bytes))
    assert(e.getMessage.contains(hint), e.getMessage)
  }

  test("a truncated file is rejected") {
    val upper = layout.nodes.find(_.level > 0).get
    val cuts = Seq(0, 3, 12, 40, layout.entryAt + 6, layout.nodes(1).levelAt + 2,
      layout.nodes(1).levelAt + 10, upper.layers(1).countAt + 6, good.length - 1)
    cuts.foreach(c => rejected(good.take(c), "truncated"))
  }

  test("a negative level is rejected") {
    rejected(IndexFileLayout.withInt(good, layout.nodes(7).levelAt, -1), "negative level")
  }

  test("a neighbour count above the layer's cap is rejected") {
    val n0 = layout.nodes(3).layers(0)
    rejected(IndexFileLayout.withInt(good, n0.countAt, 2 * params.m + 1), "cap")
    val up = layout.nodes.find(_.level > 0).get.layers(1)
    rejected(IndexFileLayout.withInt(good, up.countAt, params.m + 1), "cap")
    rejected(IndexFileLayout.withInt(good, n0.countAt, -1), "cap")
  }

  test("a neighbour id outside [0, n) is rejected") {
    val at = layout.nodes(4).layers(0).countAt + 4
    rejected(IndexFileLayout.withInt(good, at, layout.n), "outside")
    rejected(IndexFileLayout.withInt(good, at, -1), "outside")
  }

  test("an entry point outside [0, n) is rejected") {
    rejected(IndexFileLayout.withInt(good, layout.entryAt, layout.n), "entry point")
    rejected(IndexFileLayout.withInt(good, layout.entryAt, -1), "entry point")
  }

  test("an upper-layer link to a node below that layer is rejected") {
    val from = layout.nodes.find(n => n.level > 0 && n.layers(1).ids.nonEmpty).get
    val low = layout.nodes.indexWhere(_.level == 0)
    rejected(IndexFileLayout.withInt(good, from.layers(1).countAt + 4, low), "above its level")
  }

  test("an entry point below the top level is rejected") {
    val top = layout.nodes.map(_.level).max
    rejected(IndexFileLayout.withInt(good, layout.entryAt + 4, top + 1), "top level")
  }

  test("Indexer.readIndexFile names the file it could not load") {
    val f = java.io.File.createTempFile("corrupt", ".hnsw")
    f.deleteOnExit()
    java.nio.file.Files.write(f.toPath, good.take(good.length / 2))
    val e = intercept[IllegalArgumentException](repro.lanns.Indexer.readIndexFile(f.getPath))
    assert(e.getMessage.contains(f.getPath) && e.getMessage.contains("truncated"), e.getMessage)
  }
}
