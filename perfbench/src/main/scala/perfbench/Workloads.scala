package perfbench

import repro.core.{Distance, HnswParams}

/** How a workload partitions each shard into segments. */
sealed trait SegmenterSpec
/** The data-independent Random Segmenter with `segments` segments. */
final case class RandomSpec(segments: Int) extends SegmenterSpec
/** An APD hyperplane tree with virtual spill, learnt from a sample of at
  * most `maxSample` rows.
  */
final case class ApdSpec(depth: Int, alpha: Double, maxSample: Int) extends SegmenterSpec

/** One benchmark workload: a Gaussian-mixture corpus drawn like
  * `repro.VectorData.clustered` and a LANNS configuration to build and
  * query it with.
  *
  * @param mixtureSeed seed of the cluster centers, fixed per workload; the
  *                    run's seed draws the corpus and queries from them
  * @param batchSize   queries per `Querier.search` call
  * @param batches     batches in the query pool; the timed loop cycles over them
  * @param recallFloor a run whose recall_at_10 falls below this is not correct
  */
final case class Workload(
    name: String,
    dim: Int,
    distance: Distance,
    clusters: Int,
    std: Double,
    mixtureSeed: Long,
    n: Long,
    shards: Int,
    segmenter: SegmenterSpec,
    executors: Int,
    params: HnswParams,
    topK: Int,
    ef: Int,
    confidence: Option[Double],
    batchSize: Int,
    batches: Int,
    checkpoint: Boolean,
    recallFloor: Double,
) {
  def poolSize: Int = batchSize * batches

  /** Every knob of the workload, for the run report. */
  def describe: Seq[(String, Any)] = {
    val seg = segmenter match {
      case RandomSpec(m) => Seq("segmenter" -> "RS", "segments" -> m, "alpha" -> 0.0,
                                "spill" -> "none", "sample" -> 0)
      case ApdSpec(d, a, s) => Seq("segmenter" -> "APD", "segments" -> (1 << d),
        "depth" -> d, "alpha" -> a, "spill" -> "virtual", "sample" -> s)
    }
    Seq("name" -> name, "n" -> n, "dim" -> dim, "distance" -> distance.name,
        "clusters" -> clusters, "std" -> std,
        "mixture_seed" -> mixtureSeed, "shards" -> shards) ++ seg ++
      Seq("executors" -> executors, "m" -> params.m, "ef_construction" -> params.efConstruction,
          "top_k" -> topK, "ef" -> ef, "confidence" -> confidence.getOrElse("none"),
          "batch_size" -> batchSize, "batches" -> batches, "checkpoint" -> checkpoint,
          "recall_floor" -> recallFloor)
  }
}

object Workloads {

  /** The kernel-heavy case: 128-d cosine makes HNSW insertion most of the
    * build and search most of the query time; the only workload that
    * checkpoints partial hits, and it queries in one large batch.
    */
  val hidimCosineBulk = Workload(
    name = "hidim-cosine-bulk", dim = 128, distance = Distance.Cosine,
    clusters = 20, std = 0.8, mixtureSeed = 1L, n = 12000L,
    shards = 2, segmenter = RandomSpec(2), executors = 4,
    params = HnswParams(m = 12, efConstruction = 48),
    topK = 10, ef = 10, confidence = Some(0.95),
    batchSize = 1000, batches = 1, checkpoint = true, recallFloor = 0.85)

  /** The pipeline-heavy case: low-dimensional L2 with k=100 over 16 groups
    * and virtual spill, queried in small batches, so routing, shuffles,
    * index reloads and the two-level merge outweigh the search kernel.
    */
  val peopleApdBatches = Workload(
    name = "people-apd-batches", dim = 25, distance = Distance.Euclidean,
    clusters = 150, std = 0.15, mixtureSeed = 2L, n = 60000L,
    shards = 4, segmenter = ApdSpec(depth = 2, alpha = 0.15, maxSample = 20000),
    executors = 8,
    params = HnswParams(m = 7, efConstruction = 28),
    topK = 100, ef = 34, confidence = Some(0.95),
    batchSize = 200, batches = 10, checkpoint = false, recallFloor = 0.85)

  val all: Seq[Workload] = Seq(hidimCosineBulk, peopleApdBatches)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
