package repro.core

/** Low-level dense float-vector kernels.
  *
  * Storage is `Array[Float]` (half the memory of doubles — the paper notes
  * most online storage is the embeddings); accumulation is in `Double` so
  * distance comparisons are stable.
  */
object Vectors {

  /** Squared Euclidean distance — monotone in L2, used for all ordering. */
  def l2sq(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    l2sq(a, 0, b, 0, a.length)
  }

  /** Squared Euclidean distance of `a(ao until ao+n)` and `b(bo until bo+n)`
    * (the unchecked kernel behind [[l2sq]] and flat-array indexes).
    */
  def l2sq(a: Array[Float], ao: Int, b: Array[Float], bo: Int, n: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < n) {
      val d = a(ao + i).toDouble - b(bo + i).toDouble
      s += d * d
      i += 1
    }
    s
  }

  /** Dot product. */
  def dot(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    dot(a, 0, b, 0, a.length)
  }

  /** Dot product of `a(ao until ao+n)` and `b(bo until bo+n)` (the unchecked
    * kernel behind [[dot]] and flat-array indexes).
    */
  def dot(a: Array[Float], ao: Int, b: Array[Float], bo: Int, n: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < n) { s += a(ao + i).toDouble * b(bo + i).toDouble; i += 1 }
    s
  }

  /** Euclidean norm. */
  def norm(a: Array[Float]): Double = math.sqrt(dot(a, a))

  /** Cosine distance, 1 − cos(a, b); zero vectors are at distance 1.
    *
    * One pass with three accumulators; each sum runs in the same order as
    * `dot(a, b)`, `norm(a)` and `norm(b)` would, so the result is the same
    * double as the three-pass formula.
    */
  def cosineDist(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    var ab = 0.0; var aa = 0.0; var bb = 0.0
    var i = 0
    while (i < a.length) {
      val x = a(i).toDouble; val y = b(i).toDouble
      ab += x * y; aa += x * x; bb += y * y
      i += 1
    }
    cosineOf(ab, math.sqrt(aa), math.sqrt(bb))
  }

  /** Cosine distance from a dot product and the two norms. */
  def cosineOf(dot: Double, na: Double, nb: Double): Double =
    if (na == 0.0 || nb == 0.0) 1.0 else 1.0 - dot / (na * nb)

  /** Projection of `v` onto direction `h` (plain dot; `h` need not be unit). */
  def project(v: Array[Float], h: Array[Float]): Double = dot(v, h)

  /** Scale `a` to unit norm; returns a fresh array (zero vector unchanged). */
  def normalize(a: Array[Float]): Array[Float] = {
    val n = norm(a)
    if (n == 0.0) a.clone()
    else {
      val out = new Array[Float](a.length)
      var i = 0
      while (i < a.length) { out(i) = (a(i) / n).toFloat; i += 1 }
      out
    }
  }
}
