package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.{Dataset, Row, SparkSession}
import repro.VectorData
import repro.core.{BruteForce, Distance, Hit, HnswIndex, QueryRow, VecRow}
import repro.lanns.{Indexer, LannsMeta, PerShardTopK, Querier, Sharding, SparkBruteForce}
import repro.segment.{RandomSegmenter, Segmenter, SegmenterLearner}
import scala.collection.mutable
import scala.util.control.NonFatal

/** Raised when `SparkBruteForce` disagrees with the benchmark's own exact
  * scan: ground truth must not flow through the system under test, so the
  * run stops without a result.
  */
final class GroundTruthMismatch(msg: String) extends RuntimeException(msg)

/** One run of one workload.
  *
  * Load model: a single closed-loop caller submits the pool's query batches
  * one after another and waits for each result (the offline querier). Spark
  * runs `local[cores]` with every setting that shapes the plan pinned here.
  *
  * A plain run measures the end-to-end metrics with tracing off. A traced
  * run records a span around every call into the system, registers a
  * [[SparkTrace]] listener, replays single layers, and reports per-layer
  * metrics instead.
  */
final class Bench(w: Workload, seed: Long, seconds: Int, traced: Boolean, workDir: File) {
  import Bench._

  val cores: Int = math.min(MaxCores, Runtime.getRuntime.availableProcessors)
  val sparkConf: Seq[(String, String)] = Seq(
    "spark.master"                   -> s"local[$cores]",
    "spark.ui.enabled"               -> "false",
    "spark.driver.host"              -> "127.0.0.1",
    "spark.driver.bindAddress"       -> "127.0.0.1",
    "spark.default.parallelism"      -> cores.toString,
    "spark.sql.shuffle.partitions"   -> ShufflePartitions.toString,
    "spark.sql.adaptive.enabled"     -> "false",
    "spark.local.dir"                -> new File(workDir, "spark-local").getPath,
    "spark.sql.warehouse.dir"        -> new File(workDir, "warehouse").getPath,
  )

  private val tracer = new Tracer
  tracer.enabled = traced
  private val listener = new SparkTrace
  private var spark: SparkSession = _

  private var corpus: Dataset[VecRow] = _
  private var pool: Array[QueryRow] = _
  private var truth: Map[Long, Array[Long]] = _
  private lazy val local: Array[VecRow] = corpus.collect().sortBy(_.id)

  private val ckptDir = if (w.checkpoint) Some(new File(workDir, "checkpoint").getPath) else None
  private val kShard = w.confidence.map(PerShardTopK(w.topK, w.shards, _)).getOrElse(w.topK)
  private val efUsed = math.max(w.ef, kShard)

  private var attempted = 0L
  private var failed = 0L
  private val notes = mutable.ArrayBuffer.empty[String]
  /** Keeps the distance micro-benchmark's result live. */
  @volatile private var sink = 0.0

  private val t0 = System.nanoTime()
  private def phase(name: String): Unit =
    Console.err.println(f"perfbench: ${(System.nanoTime() - t0) / 1e9}%7.1f s  $name")

  /** Runs the workload; returns the result line's fields and the report. */
  def run(): (Obj, Obj) = {
    // Set-up: Spark starts once; each repetition regenerates, caches and
    // ground-truths the inputs.
    val sparkS = wallS(tracer("spark.start")(startSpark()))
    val setupS = sparkS + median((1 to SetupReps).map(_ => wallS(setupOnce())))
    checkGroundTruth()
    phase("set-up done")

    // Build 0 is cold (class loading, JIT) and untimed. Warm builds repeat
    // until there are MinBuilds of them and they took BuildSeconds in all;
    // their median is build_s.
    val builds = mutable.ArrayBuffer(build(0))
    while (builds.size <= MinBuilds ||
           (builds.tail.map(_._2).sum < BuildSeconds && builds.size <= MaxBuilds))
      builds += build(builds.size)
    val meta = builds.last._1
    builds.init.foreach(b => Querier.cleanup(new File(b._1.indexes.head.path).getParentFile.getParent))
    val buildS = median(builds.tail.map(_._2).toSeq)
    phase("builds done")

    val diskBytes = meta.indexes.map(m => new File(m.path).length()).sum
    // Retained heap of every group index: used heap (after GC) while they
    // are loaded minus used heap once they are dropped, median of HeapReps.
    def loadAll() = meta.indexes.map(m => (m.shard, m.segment) -> Indexer.readIndexFile(m.path)).toMap
    val heapBytes = median((1 to HeapReps).map(_ => (usedHeapHolding(loadAll()) - usedHeapAfterGc()).toDouble))
    val loaded = loadAll()

    val session = spark
    import session.implicits._
    val batchDs: Array[Dataset[QueryRow]] =
      pool.grouped(w.batchSize).map(b => spark.createDataset(b.toSeq)).toArray
    // Warm-up: the first (cold) batch counts towards set-up. The JIT and
    // Spark's planner keep speeding up over the next few dozen small
    // batches, so batches run untimed for WarmupSeconds.
    val warmupMs = mutable.ArrayBuffer.empty[Double]
    tracer("query.warmup") {
      val end = System.nanoTime() + (WarmupSeconds * 1e9).toLong
      while (warmupMs.size < 2 || System.nanoTime() < end) {
        val b = warmupMs.size % batchDs.length
        val (rows, ms) = runBatch(batchDs(b), meta)
        checkBatch(b, rows)
        warmupMs += ms
      }
    }
    val coldS = warmupMs.head / 1000.0
    phase("warm-up done")

    val batchMs = mutable.ArrayBuffer.empty[Double]
    val firstPass = new Array[Option[Array[Row]]](batchDs.length)
    var answered = 0L
    val deadline = System.nanoTime() + seconds * 1000000000L
    var i = 0
    while (i < batchDs.length || System.nanoTime() < deadline) {
      val b = i % batchDs.length
      val (rows, ms) = runBatch(batchDs(b), meta)
      val bad = checkBatch(b, rows)
      batchMs += ms
      answered += w.batchSize - bad
      if (i < batchDs.length) firstPass(b) = rows
      i += 1
    }
    phase("timed loop done")
    val (r10, rk) = recall(firstPass)

    val layers = if (traced) traceLayers(meta, loaded, batchDs, firstPass) else Seq.empty
    phase("layers done")
    spark.stop()
    phase("spark stopped")
    val sparkLayers = if (traced) sparkMetrics(meta) else Seq.empty
    Querier.cleanup(new File(meta.indexes.head.path).getParentFile.getParent)

    val n = w.n.toDouble
    val endToEnd = Seq(
      "setup_s"                     -> (setupS + coldS, "s"),
      "build_s"                     -> (buildS, "s"),
      "query_qps"                   -> (answered / (batchMs.sum / 1000.0), "1/s"),
      "batch_ms_p50"                -> (median(batchMs.toSeq), "ms"),
      "recall_at_10"                -> (r10, "ratio"),
      "recall_at_topk"              -> (rk, "ratio"),
      "index_disk_bytes_per_vector" -> (diskBytes / n, "B"),
      "index_heap_bytes_per_vector" -> (heapBytes / n, "B"),
      "succeeded_frac"              -> (1.0 - failed.toDouble / attempted, "ratio"),
    )
    val metrics = if (traced) layers ++ sparkLayers else endToEnd
    val correct = failed == 0 && r10 >= w.recallFloor
    if (r10 < w.recallFloor) notes += f"recall_at_10 $r10%.4f below the floor ${w.recallFloor}"

    val result = Obj(Seq(
      "correct"   -> correct,
      "attempted" -> attempted,
      "failed"    -> failed,
      "metrics"   -> Obj(metrics.map { case (k, (v, u)) => k -> Obj(Seq("value" -> v, "unit" -> u)) }),
    ))
    val report = Obj(Seq(
      "workload"         -> Obj(w.describe),
      "seed"             -> seed,
      "seconds"          -> seconds,
      "trace"            -> traced,
      "cores"            -> cores,
      "nproc"            -> Runtime.getRuntime.availableProcessors,
      "driver_heap_bytes" -> Runtime.getRuntime.maxMemory,
      "jdk"              -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "jvm_args"         -> ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.toSeq,
      "spark_version"    -> org.apache.spark.SPARK_VERSION,
      "spark_conf"       -> Obj(sparkConf),
      "kshard"           -> kShard,
      "ef_used"          -> efUsed,
      "setup_reps"       -> SetupReps,
      "warm_builds"      -> (builds.size - 1),
      "build_s_each"     -> builds.map(_._2).toSeq, // the first is the cold build
      "batches_timed"    -> batchMs.size,
      "batch_ms"         -> batchMs.toSeq,
      "warmup_ms"        -> warmupMs.toSeq,
      "end_to_end"       -> Obj(endToEnd.map { case (k, (v, _)) => k -> v }),
      "notes"            -> notes.toSeq,
      "self_ms"          -> Obj(tracer.selfMs.map { case (name, ms, calls) =>
                               name -> Obj(Seq("self_ms" -> ms, "calls" -> calls)) }),
      "spans"            -> tracer.spans.map(s => Seq(s.id, s.parent, s.name, s.startNs, s.endNs)),
      "stages"           -> listener.stages.map(s =>
                               Seq(s.span, s.stage, s.name, s.tasks, s.runMs, s.wallMs)),
    ))
    (result, report)
  }

  // ---- set-up --------------------------------------------------------------

  private def startSpark(): Unit = {
    val b = SparkSession.builder.appName(s"perfbench-${w.name}")
    sparkConf.foreach { case (k, v) => b.config(k, v) }
    spark = b.getOrCreate()
    if (traced) spark.sparkContext.addSparkListener(listener)
  }

  private def setupOnce(): Unit = {
    if (corpus != null) corpus.unpersist(blocking = true)
    tracer("setup") {
      val session = spark
      import session.implicits._
      // The mixture's centers are fixed per workload; the run seed draws the
      // corpus and the queries from it, the same way VectorData.clustered
      // does per row. Fixed centers keep the partitioning's shape (APD split
      // balance, spill, group sizes) from varying with the seed.
      val centers = VectorData.centers(w.clusters, w.dim, w.mixtureSeed)
      val (dim, std, runSeed) = (w.dim, w.std, seed) // locals, so closures do not capture this
      corpus = tracer("data.corpus") {
        val c = spark.range(w.n).as[Long]
          .map(id => VecRow(id, draw(centers, dim, std, VectorData.mix(runSeed, id)))).cache()
        c.count()
        c
      }
      val querySeed = VectorData.mix(seed, QueryStream)
      pool = tracer("data.queries")(
        spark.range(w.poolSize).as[Long]
          .map(q => QueryRow(q, draw(centers, dim, std, VectorData.mix(querySeed, q))))
          .collect().sortBy(_.qid))
      val rows = tracer("lanns.SparkBruteForce.search")(
        SparkBruteForce.search(corpus, spark.createDataset(pool.toSeq), w.topK, w.distance,
          numPartitions = cores).collect())
      truth = rows.groupBy(_.getLong(0)).map { case (q, rs) =>
        q -> rs.sortBy(_.getInt(3)).map(_.getLong(1))
      }
    }
  }

  /** Compares `SparkBruteForce` with the benchmark's own exact scan on a
    * fixed subset of the query pool.
    */
  private def checkGroundTruth(): Unit = {
    pool.take(GroundTruthChecks).foreach { q =>
      val exact = local.map(r => (ownDistance(w.distance, q.vec, r.vec), r.id))
        .sortBy(identity).take(w.topK)
      val got = truth.getOrElse(q.qid, Array.empty[Long])
      val byId = exact.map(_.swap).toMap
      val d = exact.map(_._1)
      val ok = got.length == w.topK && got.indices.forall { r =>
        got(r) == exact(r)._2 ||
          byId.get(got(r)).exists(x => math.abs(x - d(r)) <= 1e-9 * math.max(1.0, math.abs(d(r))))
      }
      if (!ok) throw new GroundTruthMismatch(
        s"SparkBruteForce differs from the exact scan for query ${q.qid}: " +
          s"got ${got.mkString(",")}, expected ${exact.map(_._2).mkString(",")}")
    }
  }

  // ---- build ---------------------------------------------------------------

  /** One full build (sample, learn, `Indexer.build`); returns its meta and
    * wall seconds, and counts a build whose output is incomplete as failed.
    */
  private def build(rep: Int): (LannsMeta, Double) = {
    val dir = new File(workDir, s"index-$rep")
    Querier.cleanup(dir.getPath)
    val t0 = System.nanoTime()
    val meta = tracer("build") {
      val segmenter: Segmenter = w.segmenter match {
        case RandomSpec(m) => new RandomSegmenter(m)
        case ApdSpec(depth, alpha, maxSample) =>
          val sample = tracer("segment.SegmenterLearner.sample")(
            SegmenterLearner.sample(corpus, maxSample))
          tracer("segment.SegmenterLearner.learnAPD")(
            SegmenterLearner.learnAPD(sample, w.dim, depth, alpha))
      }
      tracer("lanns.Indexer.build")(Indexer.build(corpus, w.dim, w.shards, segmenter,
        w.distance, w.params, dir.getPath, w.executors))
    }
    val s = (System.nanoTime() - t0) / 1e9
    attempted += 1
    val copies = local.iterator.map(r => meta.segmenter.routeData(r.id, r.vec).length.toLong).sum
    val filesOk = meta.indexes.forall(m => new File(m.path).length() > 0)
    if (meta.totalCount != copies || !filesOk) {
      failed += 1
      notes += s"build $rep: ${meta.totalCount} rows indexed, $copies routed, files ok: $filesOk"
    }
    (meta, s)
  }

  // ---- query ---------------------------------------------------------------

  /** One batch through `Querier.search`, fully materialised; `None` if it threw. */
  private def runBatch(batch: Dataset[QueryRow], meta: LannsMeta): (Option[Array[Row]], Double) = {
    val t0 = System.nanoTime()
    val rows = try Some(tracer("query.batch") {
      val df = tracer("lanns.Querier.search")(
        Querier.search(batch, meta, w.topK, w.ef, w.confidence, w.executors, ckptDir))
      val out = tracer("query.collect")(df.collect())
      df.unpersist()
      out
    }) catch {
      case NonFatal(e) =>
        notes += s"batch failed: $e"
        None
    }
    (rows, (System.nanoTime() - t0) / 1e6)
  }

  /** Counts the queries of batch `b` that lack exactly topK distinct ids
    * with ranks 1..topK and non-decreasing distance (all of them if the
    * batch threw).
    */
  private def checkBatch(b: Int, rows: Option[Array[Row]]): Int = {
    val qids = pool.slice(b * w.batchSize, (b + 1) * w.batchSize).map(_.qid)
    attempted += qids.length
    val byQ = rows.getOrElse(Array.empty[Row]).groupBy(_.getLong(0))
    val bad = qids.count { q =>
      val rs = byQ.getOrElse(q, Array.empty[Row]).sortBy(_.getInt(3))
      !(rs.length == w.topK &&
        rs.map(_.getInt(3)).sameElements(1 to w.topK) &&
        rs.map(_.getLong(1)).distinct.length == w.topK &&
        rs.sliding(2).forall(p => p.length < 2 || p(0).getDouble(2) <= p(1).getDouble(2)))
    }
    failed += bad
    if (bad > 0) notes += s"batch $b: $bad malformed results"
    bad
  }

  /** Mean R@10 and R@topK of the first pass over the pool. */
  private def recall(firstPass: Array[Option[Array[Row]]]): (Double, Double) = {
    val got = firstPass.iterator.flatMap(_.getOrElse(Array.empty[Row]))
      .toSeq.groupBy(_.getLong(0)).map { case (q, rs) => q -> rs.sortBy(_.getInt(3)).map(_.getLong(1)) }
    def at(k: Int): Double = pool.map { q =>
      val t = truth(q.qid).take(k).toSet
      got.getOrElse(q.qid, Seq.empty).take(k).count(t).toDouble / k
    }.sum / pool.length
    (at(10), at(w.topK))
  }

  // ---- traced mode: layer replays -------------------------------------------

  private def traceLayers(meta: LannsMeta, loaded: Map[(Int, Int), HnswIndex],
                          batchDs: Array[Dataset[QueryRow]],
                          firstPass: Array[Option[Array[Row]]]): Seq[(String, (Double, String))] = {
    val session = spark
    import session.implicits._
    val out = mutable.ArrayBuffer.empty[(String, (Double, String))]
    def put(name: String, v: Double, unit: String): Unit = out += (name -> (v, unit))

    // Tracing overhead: the same batches alternately with spans off and on.
    val plainMs, tracedMs = mutable.ArrayBuffer.empty[Double]
    (0 until OverheadPairs).foreach { j =>
      val b = j % batchDs.length
      tracer.enabled = false
      val (r1, m1) = runBatch(batchDs(b), meta)
      tracer.enabled = true
      checkBatch(b, r1)
      val (r2, m2) = runBatch(batchDs(b), meta)
      checkBatch(b, r2)
      plainMs += m1; tracedMs += m2
    }

    // Replay batch 0: the partial searches Querier.search would run, then
    // Querier.mergeHits on their hits, which must equal the system's output.
    val qs = pool.take(w.batchSize)
    val pairs = for {
      q <- qs
      g <- tracer("segment.Segmenter.routeQuery")(meta.segmenter.routeQuery(q.vec))
      s <- 0 until w.shards
      if loaded.contains((s, g))
    } yield (q, s, g)
    val hits = tracer("replay.partial_search") {
      pairs.flatMap { case (q, s, g) =>
        loaded((s, g)).search(q.vec, kShard, efUsed).map(n => Hit(q.qid, s, g, n.id, n.dist))
      }
    }
    val hitsDf = spark.createDataset(hits.toSeq).toDF()
    val merged = tracer("lanns.Querier.mergeHits")(Querier.mergeHits(hitsDf, kShard, w.topK).collect())
    val mismatched = differ(merged, firstPass(0).getOrElse(Array.empty[Row]), qs.map(_.qid))
    attempted += qs.length
    failed += mismatched
    if (mismatched > 0) notes += s"replay differs from Querier.search on $mismatched queries"
    val finalIds = merged.groupBy(_.getLong(0)).map { case (q, rs) => q -> rs.map(_.getLong(1)).toSet }
    val useful = hits.groupBy(h => (h.qid, h.shard, h.segment)).count { case ((q, _, _), hs) =>
      hs.exists(h => finalIds.getOrElse(q, Set.empty[Long]).contains(h.id))
    }
    val ckpt = new File(workDir, "replay-checkpoint").getPath
    tracer("lanns.Querier.checkpoint")(Querier.checkpoint(hitsDf, ckpt).count())
    Querier.cleanup(ckpt)

    // Single-index layers, replayed on the largest (shard, segment) group.
    val largest = local.iterator.flatMap { r =>
      meta.segmenter.routeData(r.id, r.vec).map(g => (Sharding.shardOf(r.id, w.shards), g) -> r)
    }.toSeq.groupMap(_._1)(_._2).maxBy(_._2.size)._2.map(r => (r.id, r.vec))
    val probes = pool.take(CoreProbeQueries)

    val m = math.min(local.length, 2048)
    val distanceNs = median((1 to 5).map { _ =>
      timed {
        var acc = 0.0
        var i = 0
        while (i < DistanceCalls) {
          acc += w.distance(local(i % m).vec, local((i * 7 + 1) % m).vec)
          i += 1
        }
        sink = acc
      }._2 * 1e6 / DistanceCalls
    })
    val (idx, buildMs) = timed(tracer("core.HnswIndex.build")(
      HnswIndex.build(w.dim, w.distance, w.params, largest.iterator)))
    val searchUs = median((1 to 3).map { _ =>
      timed(tracer("core.HnswIndex.search")(probes.foreach(q => idx.search(q.vec, kShard, efUsed))))._2 *
        1000.0 / probes.length
    })
    val bfQueries = probes.take(BruteForceQueries)
    val (exact, bfMs) = timed(tracer("core.BruteForce.topK")(
      bfQueries.map(q => BruteForce.topK(largest, q.vec, w.topK, w.distance))))
    val hnswRecall = bfQueries.zip(exact).map { case (q, ex) =>
      val t = ex.take(10).map(_.id).toSet
      idx.search(q.vec, 10, efUsed).count(n => t(n.id)) / 10.0
    }.sum / bfQueries.length
    val file = new File(workDir, "replay.hnsw").getPath
    val writeMs = median((1 to 3).map(_ =>
      timed(tracer("core.Indexer.writeIndexFile")(Indexer.writeIndexFile(idx, file)))._2))
    val loadMs = median((1 to 3).map(_ =>
      timed(tracer("core.Indexer.readIndexFile")(Indexer.readIndexFile(file)))._2))
    val mb = new File(file).length() / 1e6
    new File(file).delete()
    val routeUs = median((1 to 3).map(_ =>
      timed(pool.foreach(q => meta.segmenter.routeQuery(q.vec)))._2 * 1000.0 / pool.length))
    val fanout = pool.map(q => meta.segmenter.routeQuery(q.vec).length).sum.toDouble / pool.length
    val copies = local.iterator.map(r => meta.segmenter.routeData(r.id, r.vec).length.toLong).sum

    put("core.distance_ns", distanceNs, "ns")
    put("core.hnsw_build_vps", largest.size / (buildMs / 1000.0), "1/s")
    put("core.hnsw_search_us", searchUs, "us")
    put("core.hnsw_recall_at_10", hnswRecall, "ratio")
    put("core.index_write_mb_s", mb / (writeMs / 1000.0), "MB/s")
    put("core.index_load_mb_s", mb / (loadMs / 1000.0), "MB/s")
    put("core.bruteforce_us", bfMs * 1000.0 / bfQueries.length, "us")
    put("segment.sample_ms", medianOr0(tracer.named("segment.SegmenterLearner.sample").drop(1).map(_.ms)), "ms")
    put("segment.learn_ms", medianOr0(tracer.named("segment.SegmenterLearner.learnAPD").drop(1).map(_.ms)), "ms")
    put("segment.route_query_us", routeUs, "us")
    put("segment.query_fanout_mean", fanout, "count")
    put("segment.data_copies_mean", copies.toDouble / local.length, "count")
    put("lanns.bruteforce_ms", median(tracer.named("lanns.SparkBruteForce.search").map(_.ms)), "ms")
    put("lanns.build_ms", median(tracer.named("lanns.Indexer.build").drop(1).map(_.ms)), "ms")
    val groupMs = meta.indexes.map(_.buildMillis.toDouble)
    val groupRows = meta.indexes.map(_.count.toDouble)
    put("lanns.group_build_ms_sum", groupMs.sum, "ms")
    put("lanns.group_build_ms_max", groupMs.max, "ms")
    put("lanns.group_rows_max_over_mean", groupRows.max / (groupRows.sum / groupRows.size), "ratio")
    put("lanns.kshard", kShard.toDouble, "count")
    put("lanns.routed_pairs_per_query", pairs.length.toDouble / qs.length, "count")
    val partialMs = tracer.named("replay.partial_search").last.ms
    put("lanns.partial_search_ms", partialMs, "ms")
    put("lanns.partial_search_share_of_batch_core_time",
      partialMs / (median(tracedMs.toSeq) * cores), "ratio")
    put("lanns.merge_rows_in_per_query", hits.length.toDouble / qs.length, "count")
    put("lanns.merge_ms", tracer.named("lanns.Querier.mergeHits").last.ms, "ms")
    put("lanns.useful_pair_frac", useful.toDouble / pairs.length, "ratio")
    put("lanns.checkpoint_ms", tracer.named("lanns.Querier.checkpoint").last.ms, "ms")
    put("trace.overhead_frac", median(tracedMs.toSeq) / median(plainMs.toSeq) - 1.0, "ratio")
    out.toSeq
  }

  /** Queries of `qids` whose replayed rows differ from the system's rows. */
  private def differ(replayed: Array[Row], system: Array[Row], qids: Seq[Long]): Int = {
    def key(rs: Array[Row]) = rs.groupBy(_.getLong(0)).map { case (q, xs) =>
      q -> xs.map(r => (r.getInt(3), r.getLong(1), r.getDouble(2))).sortBy(_._1).toSeq
    }
    val a = key(replayed); val b = key(system)
    qids.count(q => a.get(q) != b.get(q))
  }

  /** Per-layer Spark metrics from the listener; call after Spark stopped. */
  private def sparkMetrics(meta: LannsMeta): Seq[(String, (Double, String))] = {
    val spans = tracer.spans
    val batchOf = spans.flatMap(s => tracer.ancestor(s.id, "query.batch").map(s.id -> _.id)).toMap
    val buildOf = spans.flatMap(s => tracer.ancestor(s.id, "lanns.Indexer.build").map(s.id -> _.id)).toMap
    val tasks = listener.tasks.toSeq
    val stages = listener.stages.toSeq
    val jobs = listener.jobs.toSeq
    val batches = tracer.named("query.batch")
    val nb = batches.size.toDouble
    val batchTasks = tasks.filter(t => batchOf.contains(t.span))
    val buildSpans = tracer.named("lanns.Indexer.build").drop(1) // warm builds only

    // The stage with the most executor time under a span is its heavy stage
    // (the per-group build, or the partial search).
    def skew(spanOf: Map[Int, Int], top: Span): Double = {
      val ts = tasks.filter(t => spanOf.get(t.span).contains(top.id))
      if (ts.isEmpty) 0.0
      else {
        val heavy = ts.groupBy(_.stage).maxBy(_._2.map(_.runMs).sum)._2.map(_.durationMs.toDouble)
        heavy.max / (heavy.sum / heavy.size)
      }
    }
    def runMs(spanOf: Map[Int, Int], top: Span): Double =
      tasks.filter(t => spanOf.get(t.span).contains(top.id)).map(_.runMs).sum.toDouble
    def heavyStageMs(top: Span): Double =
      stages.filter(s => buildOf.get(s.span).contains(top.id)).map(_.runMs.toDouble).maxOption.getOrElse(0.0)

    val groupSum = meta.indexes.map(_.buildMillis).sum.toDouble
    Seq(
      "spark.jobs_per_batch" -> (jobs.count(j => batchOf.contains(j._2)) / nb, "count"),
      "spark.stages_per_batch" -> (stages.count(s => batchOf.contains(s.span)) / nb, "count"),
      "spark.shuffle_write_bytes_per_query" ->
        (batchTasks.map(_.shuffleWriteBytes).sum / (nb * w.batchSize), "B"),
      "spark.build_task_ms_max_over_mean" -> (median(buildSpans.map(skew(buildOf, _))), "ratio"),
      "spark.query_task_ms_max_over_mean" -> (median(batches.map(skew(batchOf, _))), "ratio"),
      "spark.build_core_busy_frac" ->
        (median(buildSpans.map(s => runMs(buildOf, s) / (s.ms * cores))), "ratio"),
      "spark.query_core_busy_frac" -> (batchTasks.map(_.runMs).sum / (batches.map(_.ms).sum * cores), "ratio"),
      "spark.gc_ms_per_batch" -> (batchTasks.map(_.gcMs).sum / nb, "ms"),
      "spark.build_stage_run_ms" -> (heavyStageMs(buildSpans.last), "ms"),
      "lanns.group_build_share_of_stage" -> (groupSum / heavyStageMs(buildSpans.last), "ratio"),
    )
  }

  // ---- helpers -------------------------------------------------------------

  private def wallS(body: => Any): Double = timed(body)._2 / 1000.0
}

object Bench {
  val MaxCores = 4
  val ShufflePartitions = 8
  val SetupReps = 3
  val MinBuilds = 3
  val MaxBuilds = 8
  val BuildSeconds = 10.0
  val HeapReps = 3
  val GroundTruthChecks = 16
  val WarmupSeconds = 5.0
  val OverheadPairs = 3
  val CoreProbeQueries = 500
  val BruteForceQueries = 100
  val DistanceCalls = 200000

  /** Result of `body` and its wall time in ms. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def medianOr0(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else median(xs)

  /** Used heap after GC while `held` is still reachable. */
  def usedHeapHolding(held: AnyRef): Long = {
    val used = usedHeapAfterGc()
    java.lang.ref.Reference.reachabilityFence(held)
    used
  }

  def usedHeapAfterGc(): Long = {
    (1 to 3).foreach(_ => System.gc())
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Queries use a noise stream apart from the corpus rows with the same id. */
  val QueryStream = 0xABCDEFL

  /** One Gaussian-mixture row: a center chosen and noise drawn from `rngSeed`. */
  def draw(centers: Array[Array[Float]], dim: Int, std: Double, rngSeed: Long): Array[Float] = {
    val r = new java.util.Random(rngSeed)
    val c = centers(r.nextInt(centers.length))
    Array.tabulate(dim)(i => (c(i) + r.nextGaussian() * std).toFloat)
  }

  /** The benchmark's own distance, independent of `repro.core`, used only
    * to check ground truth.
    */
  def ownDistance(d: Distance, a: Array[Float], b: Array[Float]): Double = {
    var dot, na, nb, l2 = 0.0
    var i = 0
    while (i < a.length) {
      val x = a(i).toDouble; val y = b(i).toDouble
      dot += x * y; na += x * x; nb += y * y; l2 += (x - y) * (x - y)
      i += 1
    }
    d.name match {
      case "l2"     => l2
      case "cosine" => if (na == 0 || nb == 0) 1.0 else 1.0 - dot / (math.sqrt(na) * math.sqrt(nb))
    }
  }
}
