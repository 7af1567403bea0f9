package repro.core

import java.nio.ByteBuffer

/** An independent reader of the serialized [[HnswIndex]] layout, so tests
  * can inspect the graph and corrupt chosen fields at known offsets.
  *
  * Big-endian throughout: magic, dim, distance name (`writeUTF`), m,
  * efConstruction, efSearch, seed, n, entry, top level; then per node its
  * id, level, `dim` floats and, for each layer 0..level, a neighbour count
  * followed by that many internal ids.
  */
object IndexFileLayout {

  /** One neighbour list: the byte offset of its count and its ids. */
  final case class Links(countAt: Int, ids: IndexedSeq[Int])

  /** One node: the byte offset of its level, the level, and one list per layer. */
  final case class Node(levelAt: Int, level: Int, layers: IndexedSeq[Links])

  final case class Layout(m: Int, n: Int, entryAt: Int, nodes: IndexedSeq[Node]) {

    /** True when some link a → b on some layer has no b → a: links are only
      * ever added in pairs, so an asymmetric one was dropped by a shrink of
      * an over-full list.
      */
    def hasPrunedLink: Boolean = nodes.indices.exists { a =>
      nodes(a).layers.indices.exists { l =>
        nodes(a).layers(l).ids.exists(b => !nodes(b).layers(l).ids.contains(a))
      }
    }

    /** Largest neighbour-list length on layer 0. */
    def maxLayer0Degree: Int = nodes.map(_.layers(0).ids.length).foldLeft(0)(math.max)
  }

  def parse(bytes: Array[Byte]): Layout = {
    val bb = ByteBuffer.wrap(bytes)
    bb.getInt() // magic
    val dim = bb.getInt()
    bb.position(bb.position() + 2 + bb.getShort(bb.position()))
    val m = bb.getInt()
    bb.getInt(); bb.getInt(); bb.getLong()
    val n = bb.getInt()
    val entryAt = bb.position()
    bb.getInt(); bb.getInt()
    val nodes = (0 until n).map { _ =>
      bb.getLong()
      val levelAt = bb.position()
      val level = bb.getInt()
      bb.position(bb.position() + 4 * dim)
      val layers = (0 to level).map { _ =>
        val countAt = bb.position()
        val cnt = bb.getInt()
        Links(countAt, IndexedSeq.fill(cnt)(bb.getInt()))
      }
      Node(levelAt, level, layers)
    }
    Layout(m, n, entryAt, nodes)
  }

  /** A copy of `bytes` with the big-endian int at `at` replaced by `v`. */
  def withInt(bytes: Array[Byte], at: Int, v: Int): Array[Byte] = {
    val out = bytes.clone()
    ByteBuffer.wrap(out).putInt(at, v)
    out
  }
}
