package repro.core

import java.io.{DataInputStream, DataOutputStream}
import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.US_ASCII
import java.util.Arrays

/** Tunable parameters of an HNSW index (Malkov & Yashunin 2016, §3 of the
  * LANNS paper).
  *
  * @param m              max connections per node on layers > 0; layer 0
  *                       allows 2·m (the standard maxM0 rule)
  * @param efConstruction beam width of the candidate search during insertion
  * @param efSearch       default beam width at query time (overridable per call)
  * @param seed           seed of the level-assignment RNG, so builds are
  *                       deterministic given an insertion order
  */
final case class HnswParams(
    m: Int = 16,
    efConstruction: Int = 100,
    efSearch: Int = 64,
    seed: Long = 42L,
)

/** A Hierarchical Navigable Small World graph index over dense float vectors.
  *
  * This is the per-(shard, segment) building block of LANNS: a multi-layer
  * proximity graph where each node gets a random maximum layer drawn from an
  * exponential distribution with scale 1/ln(m). Insertion greedily descends
  * from the entry point to the node's top layer, then runs a beam search of
  * width `efConstruction` on each layer downward, connecting the node to
  * neighbors chosen by the select-neighbors *heuristic* (Algorithm 4 of the
  * HNSW paper: a candidate is kept only if it is closer to the base point
  * than to every already-selected neighbor, which preserves graph
  * navigability in clustered data).
  *
  * Storage is flat, as in hnswlib (the HNSW authors' library): node `u`'s
  * vector is `vecs(u·dim until (u+1)·dim)`; its layer-0 list is a count and
  * up to 2·m ids at `links0(u·(2m+1))`; layers 1..level live in one array
  * per node with stride m+1, absent for level-0 nodes. Cosine indexes keep
  * each node's norm, so a distance is one dot product.
  *
  * Not thread-safe: inserts mutate the graph and every search reuses the
  * index's visited marks and beam heaps. The LANNS indexer builds each index
  * inside a single Spark task, and each query task loads its own copy.
  */
final class HnswIndex private (
    val dim: Int,
    val distance: Distance,
    val params: HnswParams,
) extends Serializable {
  require(dim >= 1, s"index dim must be >= 1, got $dim")
  require(params.m >= 1, s"HNSW m must be >= 1, got ${params.m}")

  private val cosine  = distance == Distance.Cosine
  private val stride0 = 2 * params.m + 1
  private val strideU = params.m + 1

  private var n      = 0
  private var ids    = new Array[Long](0)
  private var levels = new Array[Int](0)
  private var vecs   = new Array[Float](0)
  private var norms  = new Array[Double](0) // cosine only
  private var links0 = new Array[Int](0)
  private var upper  = new Array[Array[Int]](0)

  private var entry: Int    = -1
  private var topLevel: Int = -1

  private val rng = new java.util.Random(params.seed)
  private val mL  = 1.0 / math.log(math.max(2, params.m).toDouble)

  // Search scratch, reused across calls: visited marking by stamp (O(1)
  // clear), the two beam heaps, the sorted beam output and the
  // select-neighbors / shrink buffers.
  private var visited    = new Array[Int](0)
  private var visitStamp = 0
  private val cand       = new BeamHeap(maxFirst = false)
  private val res        = new BeamHeap(maxFirst = true)
  private var beamIds    = new Array[Int](16)
  private var beamDists  = new Array[Double](16)
  private var pruned     = new Array[Int](16)
  private val shrinkIds  = new Array[Int](stride0)
  private val shrinkDist = new Array[Double](stride0)

  /** Number of indexed vectors. */
  def size: Int = n

  /** External id of internal node `i` (test/introspection hook). */
  def idOf(i: Int): Long = { require(i >= 0 && i < n, s"node $i outside [0, $n)"); ids(i) }

  /** Level of internal node `i` (test/introspection hook). */
  def levelOf(i: Int): Int = { require(i >= 0 && i < n, s"node $i outside [0, $n)"); levels(i) }

  /** Current top layer of the hierarchy, −1 when empty. */
  def maxLevel: Int = topLevel

  /** Largest adjacency-list length over all (node, layer) pairs — bounded
    * by 2·m by construction (invariant-test hook).
    */
  def maxObservedDegree: Int = {
    var mx = 0
    var u = 0
    while (u < n) {
      var l = 0
      while (l <= levels(u)) { mx = math.max(mx, linkArr(u, l)(linkBase(u, l))); l += 1 }
      u += 1
    }
    mx
  }

  /** Number of nodes whose assigned level is ≥ `l` (level-distribution
    * test hook).
    */
  def countAtLevel(l: Int): Int = (0 until n).count(levels(_) >= l)

  private def maxDegree(layer: Int): Int = if (layer == 0) 2 * params.m else params.m

  private def linkArr(u: Int, layer: Int): Array[Int] = if (layer == 0) links0 else upper(u)
  private def linkBase(u: Int, layer: Int): Int =
    if (layer == 0) u * stride0 else (layer - 1) * strideU

  /** Norm used by cosine distances to `q(qo until qo+dim)`; unused for L2. */
  private def normOf(q: Array[Float], qo: Int): Double =
    if (cosine) math.sqrt(Vectors.dot(q, qo, q, qo, dim)) else 0.0

  /** Distance from `q(qo until qo+dim)`, whose norm is `qn`, to node `u`. */
  private def dist(q: Array[Float], qo: Int, qn: Double, u: Int): Double =
    if (cosine) Vectors.cosineOf(Vectors.dot(q, qo, vecs, u * dim, dim), qn, norms(u))
    else Vectors.l2sq(q, qo, vecs, u * dim, dim)

  private def nodeDist(a: Int, b: Int): Double =
    dist(vecs, a * dim, if (cosine) norms(a) else 0.0, b)

  private def reserve(capacity: Int): Unit = if (capacity > ids.length) {
    require(capacity.toLong * math.max(dim, stride0) <= Int.MaxValue, s"index too large: $capacity nodes")
    ids = Arrays.copyOf(ids, capacity)
    levels = Arrays.copyOf(levels, capacity)
    vecs = Arrays.copyOf(vecs, capacity * dim)
    if (cosine) norms = Arrays.copyOf(norms, capacity)
    links0 = Arrays.copyOf(links0, capacity * stride0)
    upper = Arrays.copyOf(upper, capacity)
  }

  private def newStamp(): Unit = {
    if (visited.length < n) visited = new Array[Int](ids.length)
    else if (visitStamp == Int.MaxValue) { Arrays.fill(visited, 0); visitStamp = 0 }
    visitStamp += 1
  }

  /** Greedy descent: closest node to `q` on `layer` starting from `ep`. */
  private def greedyClosest(q: Array[Float], qo: Int, qn: Double, ep: Int, layer: Int): Int = {
    var cur  = ep
    var curD = dist(q, qo, qn, cur)
    var improved = true
    while (improved) {
      improved = false
      val arr  = linkArr(cur, layer)
      val base = linkBase(cur, layer)
      var i = 1
      while (i <= arr(base)) {
        val nb = arr(base + i)
        val d = dist(q, qo, qn, nb)
        if (d < curD) { cur = nb; curD = d; improved = true }
        i += 1
      }
    }
    cur
  }

  /** Beam search of width `ef` on `layer`: fills `beamIds`/`beamDists`
    * with at most `ef` candidates by ascending distance and returns their
    * count.
    */
  private def searchLayer(q: Array[Float], qo: Int, qn: Double, ep: Int, ef: Int, layer: Int): Int = {
    newStamp()
    cand.clear(); res.clear()
    val d0 = dist(q, qo, qn, ep)
    cand.add(ep, d0); res.add(ep, d0); visited(ep) = visitStamp

    while (cand.size > 0) {
      val c = cand.topNode; val cd = cand.topDist
      cand.poll()
      if (cd > res.topDist && res.size >= ef) {
        cand.clear() // no candidate can improve the result set
      } else {
        val arr  = linkArr(c, layer)
        val base = linkBase(c, layer)
        var i = 1
        while (i <= arr(base)) {
          val nb = arr(base + i)
          if (visited(nb) != visitStamp) {
            visited(nb) = visitStamp
            val d = dist(q, qo, qn, nb)
            if (res.size < ef || d < res.topDist) {
              cand.add(nb, d)
              res.add(nb, d)
              if (res.size > ef) res.poll()
            }
          }
          i += 1
        }
      }
    }
    val count = res.size
    if (beamIds.length < count) {
      beamIds = new Array[Int](count * 2); beamDists = new Array[Double](count * 2)
    }
    // res drains largest-first; fill from the back to get ascending order
    var i = count - 1
    while (i >= 0) { beamIds(i) = res.topNode; beamDists(i) = res.topDist; res.poll(); i -= 1 }
    count
  }

  /** Select-neighbors heuristic (HNSW Algorithm 4) over the first `count`
    * candidates, sorted by ascending distance to the base point: keep a
    * candidate only if it is closer to the base than to any already-kept
    * neighbor; backfill with the nearest pruned candidates if fewer than `m`
    * survive. Writes the list (count, then ids) to `out(at)`.
    */
  private def selectHeuristic(candIds: Array[Int], candDists: Array[Double], count: Int, m: Int,
                              out: Array[Int], at: Int): Unit = {
    if (pruned.length < count) pruned = new Array[Int](count * 2)
    var kept = 0
    var nPruned = 0
    var i = 0
    while (i < count && kept < m) {
      val c = candIds(i)
      var good = true
      var j = 0
      while (good && j < kept) {
        if (nodeDist(c, out(at + 1 + j)) < candDists(i)) good = false
        j += 1
      }
      if (good) { out(at + 1 + kept) = c; kept += 1 }
      else { pruned(nPruned) = c; nPruned += 1 }
      i += 1
    }
    var p = 0
    while (kept < m && p < nPruned) { out(at + 1 + kept) = pruned(p); kept += 1; p += 1 }
    out(at) = kept
  }

  /** Add the link u → v on `layer`. A full list is re-pruned back to the
    * layer's degree cap: [existing…, v] scored by distance from `u`, stably
    * sorted, then the select-neighbors heuristic.
    */
  private def link(u: Int, v: Int, layer: Int): Unit = {
    val arr   = linkArr(u, layer)
    val base  = linkBase(u, layer)
    val count = arr(base)
    if (count < maxDegree(layer)) {
      arr(base + 1 + count) = v
      arr(base) = count + 1
    } else {
      var i = 0
      while (i <= count) {
        val w = if (i < count) arr(base + 1 + i) else v
        val d = nodeDist(u, w)
        // stable insertion sort by distance
        var j = i
        while (j > 0 && java.lang.Double.compare(shrinkDist(j - 1), d) > 0) {
          shrinkIds(j) = shrinkIds(j - 1); shrinkDist(j) = shrinkDist(j - 1); j -= 1
        }
        shrinkIds(j) = w; shrinkDist(j) = d
        i += 1
      }
      selectHeuristic(shrinkIds, shrinkDist, count + 1, maxDegree(layer), arr, base)
    }
  }

  /** Insert one vector. Duplicate external ids are allowed (last wins at
    * merge time via distance ordering).
    */
  def add(id: Long, v: Array[Float]): Unit = {
    require(v.length == dim, s"vector dim ${v.length} != index dim $dim")
    val level = math.floor(-math.log(rng.nextDouble() + 1e-300) * mL).toInt
    val node  = n
    if (node == ids.length) reserve(math.max(16, node * 2))
    ids(node) = id
    levels(node) = level
    System.arraycopy(v, 0, vecs, node * dim, dim)
    val vn = normOf(v, 0)
    if (cosine) norms(node) = vn
    links0(node * stride0) = 0
    upper(node) = if (level > 0) new Array[Int](level * strideU) else null
    n += 1

    if (entry < 0) { entry = node; topLevel = level; return }

    var ep = entry
    var l  = topLevel
    while (l > level) { ep = greedyClosest(v, 0, vn, ep, l); l -= 1 }

    l = math.min(level, topLevel)
    while (l >= 0) {
      val count = searchLayer(v, 0, vn, ep, params.efConstruction, l)
      ep = beamIds(0)
      val arr  = linkArr(node, l)
      val base = linkBase(node, l)
      selectHeuristic(beamIds, beamDists, count, maxDegree(l), arr, base)
      var i = 1
      while (i <= arr(base)) { link(arr(base + i), node, l); i += 1 }
      l -= 1
    }

    if (level > topLevel) { entry = node; topLevel = level }
  }

  /** Top-`k` approximate nearest neighbors of `q`, sorted by ascending
    * distance (ties by external id). `ef` defaults to
    * `max(params.efSearch, k)`.
    */
  def search(q: Array[Float], k: Int, ef: Int = -1): Array[Neighbor] = {
    if (size == 0) return Array.empty
    require(q.length == dim, s"query dim ${q.length} != index dim $dim")
    val beam = math.max(if (ef > 0) ef else params.efSearch, k)
    val qn = normOf(q, 0)
    var ep = entry
    var l  = topLevel
    while (l > 0) { ep = greedyClosest(q, 0, qn, ep, l); l -= 1 }
    val count = searchLayer(q, 0, qn, ep, beam, 0)
    val out = Array.tabulate(count)(i => Neighbor(ids(beamIds(i)), beamDists(i)))
    Arrays.sort(out, HnswIndex.ByDistThenId)
    if (k < count) Arrays.copyOf(out, math.max(k, 0)) else out
  }

  /** Serialize to a binary stream (index + vectors + metadata), the unit the
    * LANNS indexer persists per (shard, segment).
    */
  def writeTo(out: DataOutputStream): Unit = out.write(toBytes)

  /** Serialize to a byte array in the layout [[HnswIndex.fromBytes]] reads:
    * big-endian, as `DataOutputStream` writes it — magic, dim, the distance
    * name (`writeUTF`), m, efConstruction, efSearch, seed, n, entry, top
    * level; then per node its id, level, `dim` floats and, for each layer
    * 0..level, a neighbour count followed by that many internal ids.
    */
  def toBytes: Array[Byte] = {
    val name = distance.name.getBytes(US_ASCII)
    val head = HnswIndex.HeaderBytes + name.length
    var bodyInts = 0L
    var u = 0
    while (u < n) {
      bodyInts += 3 + dim
      var l = 0
      while (l <= levels(u)) { bodyInts += 1 + linkArr(u, l)(linkBase(u, l)); l += 1 }
      u += 1
    }
    require(head + 4 * bodyInts <= Int.MaxValue, s"index too large to serialize: $n nodes")
    val bb = ByteBuffer.allocate(head + 4 * bodyInts.toInt)
    bb.putInt(HnswIndex.Magic).putInt(dim).putShort(name.length.toShort).put(name)
    bb.putInt(params.m).putInt(params.efConstruction).putInt(params.efSearch).putLong(params.seed)
    bb.putInt(n).putInt(entry).putInt(topLevel)
    // Every body field is a multiple of 4 bytes: address it in ints from `head`.
    val ib = bb.asIntBuffer()
    val fb = bb.asFloatBuffer()
    var k = 0
    u = 0
    while (u < n) {
      bb.putLong(head + 4 * k, ids(u)); k += 2
      ib.put(k, levels(u)); k += 1
      fb.put(k, vecs, u * dim, dim); k += dim
      var l = 0
      while (l <= levels(u)) {
        val arr = linkArr(u, l); val base = linkBase(u, l)
        ib.put(k, arr, base, arr(base) + 1); k += arr(base) + 1
        l += 1
      }
      u += 1
    }
    bb.array()
  }
}

object HnswIndex {
  private val Magic = 0x4C414E53 // "LANS"

  /** Header bytes besides the distance name: magic, dim, the name's length,
    * m, efConstruction, efSearch, seed, n, entry, top level.
    */
  private val HeaderBytes = 4 + 4 + 2 + 4 + 4 + 4 + 8 + 4 + 4 + 4

  private val ByDistThenId: java.util.Comparator[Neighbor] = (a: Neighbor, b: Neighbor) => {
    val c = java.lang.Double.compare(a.dist, b.dist)
    if (c != 0) c else java.lang.Long.compare(a.id, b.id)
  }

  /** Create an empty index. */
  def empty(dim: Int, distance: Distance, params: HnswParams): HnswIndex =
    new HnswIndex(dim, distance, params)

  /** Build an index from an iterator of (id, vector) pairs. */
  def build(dim: Int, distance: Distance, params: HnswParams,
            items: Iterator[(Long, Array[Float])]): HnswIndex = {
    val idx = empty(dim, distance, params)
    items.foreach { case (id, v) => idx.add(id, v) }
    idx
  }

  /** Deserialize an index previously written with [[HnswIndex.writeTo]],
    * reading the rest of the stream.
    */
  def readFrom(in: DataInputStream): HnswIndex = fromBytes(in.readAllBytes())

  /** Deserialize an index written by [[HnswIndex.toBytes]]. Arrays are
    * sized to exactly the stored node count. A truncated or inconsistent
    * file (bad magic or distance, negative level, a neighbour list over its
    * layer's cap, a neighbour or entry point outside the index) is rejected
    * with an `IllegalArgumentException`.
    */
  def fromBytes(bytes: Array[Byte]): HnswIndex = {
    val bb = ByteBuffer.wrap(bytes)
    def need(b: Int, what: String): Unit =
      require(bb.remaining >= b, s"truncated index file: ${bytes.length} bytes end inside the $what")
    need(10, "header")
    val magic = bb.getInt()
    require(magic == Magic, f"bad index file magic 0x$magic%08x")
    val dim = bb.getInt()
    val nameLen = bb.getShort() & 0xFFFF
    need(nameLen + HeaderBytes - 10, "header")
    val dist = Distance.of(new String(bytes, bb.position(), nameLen, US_ASCII))
    bb.position(bb.position() + nameLen)
    val params = HnswParams(bb.getInt(), bb.getInt(), bb.getInt(), bb.getLong())
    val n = bb.getInt(); val entry = bb.getInt(); val top = bb.getInt()
    val idx = new HnswIndex(dim, dist, params)
    require(n >= 0, s"negative node count $n")
    require(n.toLong * (4 + dim) <= bb.remaining / 4, s"truncated index file: $n nodes of dim $dim need more than ${bytes.length} bytes")
    if (n == 0) require(entry == -1 && top == -1, s"empty index with entry point $entry at level $top")
    else require(entry >= 0 && entry < n, s"entry point $entry outside [0, $n)")

    idx.reserve(n)
    val head = bb.position()
    val bodyInts = (bytes.length - head) / 4
    val ib = bb.asIntBuffer()
    val fb = bb.asFloatBuffer()
    var k = 0
    def needInts(c: Long, what: String): Unit =
      require(k + c <= bodyInts, s"truncated index file: ${bytes.length} bytes end inside $what")
    var u = 0
    while (u < n) {
      needInts(3 + dim, s"node $u")
      idx.ids(u) = bb.getLong(head + 4 * k); k += 2
      val level = ib.get(k); k += 1
      require(level >= 0, s"node $u has negative level $level")
      needInts(dim + level + 1L, s"node $u")
      idx.levels(u) = level
      fb.get(k, idx.vecs, u * dim, dim); k += dim
      if (idx.cosine) idx.norms(u) = idx.normOf(idx.vecs, u * dim)
      if (level > 0) idx.upper(u) = new Array[Int](level * idx.strideU)
      var l = 0
      while (l <= level) {
        val count = ib.get(k)
        val cap = idx.maxDegree(l)
        require(count >= 0 && count <= cap, s"node $u has $count neighbours on layer $l, cap $cap")
        needInts(count + 1L, s"node $u layer $l")
        val arr = idx.linkArr(u, l); val base = idx.linkBase(u, l)
        ib.get(k, arr, base, count + 1); k += count + 1
        var t = 1
        while (t <= count) {
          val v = arr(base + t)
          require(v >= 0 && v < n, s"node $u links to $v on layer $l, outside [0, $n)")
          t += 1
        }
        l += 1
      }
      u += 1
    }
    idx.n = n
    // Upper-layer neighbours must exist on that layer, and the entry point
    // must sit on the top layer, or a descent would step off the graph.
    u = 0
    while (u < n) {
      var l = 1
      while (l <= idx.levels(u)) {
        val arr = idx.upper(u); val base = idx.linkBase(u, l)
        var t = 1
        while (t <= arr(base)) {
          val v = arr(base + t)
          require(idx.levels(v) >= l, s"node $u links to $v on layer $l above its level ${idx.levels(v)}")
          t += 1
        }
        l += 1
      }
      u += 1
    }
    if (n > 0) require(idx.levels(entry) == top, s"entry point $entry has level ${idx.levels(entry)}, top level is $top")
    idx.entry = entry; idx.topLevel = top
    idx
  }
}

/** A binary heap of (node, distance) pairs over primitive arrays, ordered by
  * `java.lang.Double.compare` on the distance (largest first when
  * `maxFirst`). Its sift steps are `java.util.PriorityQueue`'s, so equal
  * distances leave in the same order they would from that queue.
  */
private[core] final class BeamHeap(maxFirst: Boolean) extends Serializable {
  private var nodes = new Array[Int](16)
  private var dists = new Array[Double](16)
  var size = 0

  def topNode: Int    = nodes(0)
  def topDist: Double = dists(0)
  def clear(): Unit   = size = 0

  private def cmp(a: Double, b: Double): Int =
    if (maxFirst) java.lang.Double.compare(b, a) else java.lang.Double.compare(a, b)

  def add(node: Int, d: Double): Unit = {
    if (size == nodes.length) {
      nodes = Arrays.copyOf(nodes, size * 2); dists = Arrays.copyOf(dists, size * 2)
    }
    var k = size
    var moving = true
    while (moving && k > 0) {
      val parent = (k - 1) >>> 1
      if (cmp(d, dists(parent)) >= 0) moving = false
      else { nodes(k) = nodes(parent); dists(k) = dists(parent); k = parent }
    }
    nodes(k) = node; dists(k) = d
    size += 1
  }

  /** Remove the top pair (the heap must be non-empty). */
  def poll(): Unit = {
    size -= 1
    val n = size
    if (n > 0) {
      val xn = nodes(n); val xd = dists(n)
      val half = n >>> 1
      var k = 0
      var moving = true
      while (moving && k < half) {
        var child = (k << 1) + 1
        val right = child + 1
        if (right < n && cmp(dists(child), dists(right)) > 0) child = right
        if (cmp(xd, dists(child)) <= 0) moving = false
        else { nodes(k) = nodes(child); dists(k) = dists(child); k = child }
      }
      nodes(k) = xn; dists(k) = xd
    }
  }
}
