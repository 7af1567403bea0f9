package repro.segment

/** One segmenter configuration (§4.3): the method, the number of segments
  * per shard and, for the hyperplane trees, the spill fraction α. The
  * unpartitioned HNSW baseline is `Rs(1)`.
  *
  * Hyperplane trees have 2^depth leaves, so `Rh`/`Apd` reject a segment
  * count that is not a power of two ≥ 2 rather than round it.
  */
sealed trait SegmenterSpec {
  /** Build the segmenter, learning RH/APD on `sample` (shared across
    * shards, §5.1). `sample` is by-name, so RS never draws one.
    */
  def learn(sample: => Array[Array[Float]], dim: Int, seed: Long): Segmenter
}

object SegmenterSpec {

  final case class Rs(segments: Int) extends SegmenterSpec {
    require(segments >= 1, s"segments must be >= 1, got $segments")
    def learn(sample: => Array[Array[Float]], dim: Int, seed: Long): RandomSegmenter =
      new RandomSegmenter(segments, seed)
  }

  final case class Rh(segments: Int, alpha: Double) extends SegmenterSpec {
    private val depth = treeDepth(segments)
    def learn(sample: => Array[Array[Float]], dim: Int, seed: Long): HyperplaneSegmenter =
      SegmenterLearner.learnRH(sample, dim, depth, alpha, seed)
  }

  final case class Apd(segments: Int, alpha: Double) extends SegmenterSpec {
    private val depth = treeDepth(segments)
    def learn(sample: => Array[Array[Float]], dim: Int, seed: Long): HyperplaneSegmenter =
      SegmenterLearner.learnAPD(sample, dim, depth, alpha, seed)
  }

  /** The spec for a method name as written on a command line: RS, RH or APD. */
  def parse(method: String, segments: Int, alpha: Double): SegmenterSpec = method match {
    case "RS"  => Rs(segments)
    case "RH"  => Rh(segments, alpha)
    case "APD" => Apd(segments, alpha)
    case other =>
      throw new IllegalArgumentException(s"unknown segmenter method '$other', expected RS, RH or APD")
  }

  private def treeDepth(segments: Int): Int = {
    require(segments >= 2 && (segments & (segments - 1)) == 0,
      s"segments must be a power of two >= 2, got $segments")
    java.lang.Integer.numberOfTrailingZeros(segments)
  }
}
