package perfbench

import org.apache.spark.sql.SparkSession
import repro.graph.{GraphOps, LocalUnionFind, SpaceTracker}
import repro.harness.BenchHarness
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Success, Try}

/** One CC run: its time to labels, the outcome of the partition check, and
  * what the space tracker and (in traced runs) the Spark listener saw.
  */
final case class CcResult(
    phase: String, seconds: Double, error: Option[String], rounds: Int,
    maxLiveRows: Long, writtenRows: Long, roundRows: Seq[Long], validateS: Double,
    counts: Option[SparkCounts], driverOnlyS: Double) {

  /** Mean ratio of consecutive per-round edge-table sizes (Theorem 1: <= 3/4). */
  def shrinkMean: Double = {
    val ratios = roundRows.zip(roundRows.drop(1)).collect { case (a, b) if a > 0 => b.toDouble / a }
    if (ratios.isEmpty) Double.NaN else ratios.sum / ratios.size
  }
}

/** A reported metric: the median of its samples. */
final case class Metric(name: String, unit: String, samples: Seq[Double]) {
  def value: Double = Probes.median(samples)
}

/** Runs one workload in this JVM and prints one `PERFBENCH {json}` line.
  *
  * Order: session start, input generation (three times, the last one kept),
  * union-find oracle, partition-check self-test, the first (cold) CC run,
  * one warm-up run, then [[MeasuredRuns]] measured runs, more if `seconds`
  * have not passed. The JIT keeps compiling for ten and more runs, and where
  * it settles differs from JVM to JVM, so a fixed position on that curve
  * reproduces better than a plateau the time budget could not wait for.
  *
  * The cold and warm-up runs use the workload seed; the i-th measured run
  * uses algorithm seed `seed + i` on the same input, because RC's round
  * count varies with the seed and `cc_s` should not rest on one draw. Every
  * CC run, the warm-up included, has its labelling checked against the
  * oracle and counts as attempted. With `traced`, each measured run is
  * followed by a traced one (Spark listener and spans on), and the
  * single-layer probes run last.
  */
final class Bench(wl: Workload, seed: Long, seconds: Double, traced: Boolean) {
  private val GenerateReps = 3
  private val MeasuredRuns = 2

  private val trace   = new Trace(traced)
  private val untraced = new Trace(false)

  private def timed[T](body: => T): (T, Double) = {
    val t = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t) / 1e9)
  }

  def run(): String = {
    val (spark, sessionS) = timed(trace("setup.session")(Bench.session()))
    val sc = spark.sparkContext

    val gens = (1 to GenerateReps).map { _ =>
      timed(trace("setup.generate") {
        val df = GraphOps.asEdges(wl.generate(spark, seed)).localCheckpoint(true)
        (df, df.count())
      })
    }
    gens.init.foreach(_._1._1.unpersist(true))
    val (input, inputRows) = gens.last._1
    val keep = sc.getPersistentRDDs.keySet.toSet
    def cleanup(): Unit =
      sc.getPersistentRDDs.foreach { case (id, rdd) => if (!keep(id)) rdd.unpersist(blocking = true) }

    val ((expected, vertices, components), oracleS) = timed(trace("graph.oracle") {
      val edges = input.collect().iterator.map(r => (r.getLong(0), r.getLong(1)))
      val uf    = LocalUnionFind.fromEdges(edges)
      (mutable.LongMap.from(uf.minLabels), uf.verticesSeen.size, uf.componentCount)
    })
    val (selfTest, selfTestOk) = Partition.selfTest(expected)

    val counters = new SparkCounters(sc)
    def ccRun(phase: String, algoSeed: Long, withTrace: Boolean): CcResult = {
      val t       = if (withTrace) trace else untraced
      val tracker = new SpaceTracker(capRows = BenchHarness.capRows(inputRows), algoName = wl.algo.name)
      if (withTrace) { counters.attach(); counters.reset() }
      val fromMs = System.currentTimeMillis()
      val (out, secs) = timed(Try(t("cc") {
        val run = t("core.run")(wl.algo.run(input, tracker, algoSeed))
        t("core.labels") {
          val labels = run.labels.localCheckpoint(true)
          labels.count()
          (run.rounds, labels)
        }
      }))
      val toMs   = System.currentTimeMillis()
      val counts = if (withTrace) { val c = counters.snapshot(); counters.detach(); Some(c) } else None
      val (error, validateS) = out match {
        case Failure(e) => (Some(e.toString), 0.0)
        case Success((_, labels)) =>
          timed(t("harness.validate") {
            Try(Partition.mismatch(labels.collect().map(r => (r.getLong(0), r.getLong(1))), expected))
              .fold(e => Some(e.toString), identity)
          })
      }
      cleanup()
      System.gc() // lets Spark's ContextCleaner drop the run's shuffle files before the next run
      System.err.println(f"perfbench: ${wl.name} run ${secs}%.2f s, ${if (error.isEmpty) "correct" else "FAILED"}")
      CcResult(phase, secs, error, out.map(_._1).getOrElse(0),
        tracker.maxLiveRows, tracker.totalWrittenRows, tracker.roundEdgeRows, validateS,
        counts, counts.map(_.idleMs(fromMs, toMs) / 1e3).getOrElse(Double.NaN))
    }

    val runs = ArrayBuffer(ccRun("cold", seed, withTrace = false), ccRun("warmup", seed, withTrace = false))
    val until = System.nanoTime() + (seconds * 1e9).toLong
    var i = 0
    while (i < MeasuredRuns || System.nanoTime() < until) {
      runs += ccRun("measured", seed + i, withTrace = false)
      if (traced) runs += ccRun("traced", seed + i, withTrace = true)
      i += 1
    }

    val measuredRuns = runs.filter(_.phase == "measured").toSeq
    val tracedRuns = runs.filter(_.phase == "traced").toSeq
    val failed = runs.count(_.error.isDefined)
    val cold = runs.head

    val endToEnd = Seq(
      Metric("cc_s", "s", measuredRuns.map(_.seconds)),
      Metric("cc_first_s", "s", Seq(cold.seconds)),
      Metric("setup_s", "s", gens.map(sessionS + _._2)),
      Metric("max_space_x", "ratio", measuredRuns.map(_.maxLiveRows.toDouble / inputRows)),
      Metric("written_x", "ratio", measuredRuns.map(_.writtenRows.toDouble / inputRows)),
      Metric("failed_frac", "ratio", Seq(failed.toDouble / runs.size)))

    val perLayer = if (!traced) Seq.empty else {
      def sparkMetric(name: String, unit: String, f: SparkCounts => Double) =
        Metric(s"spark.$name", unit, tracedRuns.flatMap(_.counts).map(f))
      val gfAxb   = trace("probe.gf.axb")(Probes.gfAxbNs(seed))
      val gfExpr  = trace("probe.gf.expr")(Probes.exprMsPerMrow(spark, gf = true, 1L << 22, seed))
      val refExpr = trace("probe.gf.expr_ref")(Probes.exprMsPerMrow(spark, gf = false, 1L << 22, seed))
      val matRows = 1L << 20
      val (matFixed, matBig) = trace("probe.graph.materialize") {
        (Probes.materializeS(spark, 10, 9, () => cleanup()),
         Probes.materializeS(spark, matRows, 3, () => cleanup()))
      }
      counters.attach(); counters.reset()
      new SpaceTracker().materialize("J", Probes.edgeTable(spark, 10))
      val matJobs = counters.snapshot().jobs.toDouble
      counters.detach()
      cleanup()
      Seq(
        Metric("gf.axb_ns", "ns", gfAxb),
        Metric("gf.expr_ms_per_mrow", "ms/Mrow", gfExpr),
        Metric("gf.expr_ref_ms_per_mrow", "ms/Mrow", refExpr),
        Metric("graph.materialize_fixed_ms", "ms", matFixed.map(_ * 1e3)),
        Metric("graph.materialize_ns_per_row", "ns/row",
          Seq((Probes.median(matBig) - Probes.median(matFixed)) * 1e9 / matRows)),
        Metric("graph.materialize_jobs", "count", Seq(matJobs)),
        Metric("graph.oracle_s", "s", Seq(oracleS)),
        Metric("core.rounds", "count", measuredRuns.map(_.rounds.toDouble)),
        Metric("core.ms_per_round", "ms", measuredRuns.map(r => r.seconds * 1e3 / r.rounds)),
        Metric("core.shrink_mean", "ratio", measuredRuns.map(_.shrinkMean).filterNot(_.isNaN)),
        sparkMetric("jobs", "count", _.jobs.toDouble),
        sparkMetric("stages", "count", _.stages.toDouble),
        sparkMetric("tasks", "count", _.tasks.toDouble),
        Metric("spark.driver_only_s", "s", tracedRuns.map(_.driverOnlyS)),
        sparkMetric("task_busy_s", "s", _.taskBusyMs / 1e3),
        sparkMetric("gc_s", "s", _.gcMs / 1e3),
        sparkMetric("shuffle_read_mb", "MB", _.shuffleReadBytes / 1e6),
        sparkMetric("shuffle_write_mb", "MB", _.shuffleWriteBytes / 1e6),
        sparkMetric("spill_mb", "MB", _.spillBytes / 1e6),
        Metric("setup.session_s", "s", Seq(sessionS)),
        Metric("setup.generate_s", "s", gens.map(_._2)),
        Metric("harness.validate_s", "s", runs.filter(_.error.isEmpty).map(_.validateS).toSeq),
        Metric("trace.cc_traced_s", "s", tracedRuns.map(_.seconds)),
        Metric("trace.overhead_s", "s",
          Seq(Probes.median(tracedRuns.map(_.seconds)) - Probes.median(measuredRuns.map(_.seconds)))))
    }
    spark.stop()

    def metricJson(m: Metric) = m.name -> Json.obj(Seq(
      "value" -> Json.num(m.value), "unit" -> Json.str(m.unit), "samples" -> m.samples.size.toString))
    def runJson(r: CcResult) = Json.obj(Seq(
      "phase" -> Json.str(r.phase), "seconds" -> Json.num(r.seconds), "rounds" -> r.rounds.toString,
      "ok" -> r.error.isEmpty.toString) ++ r.error.map(e => "error" -> Json.str(e)))
    Json.obj(Seq(
      "workload"   -> Json.str(wl.name),
      "algorithm"  -> Json.str(wl.algo.name),
      "seed"       -> seed.toString,
      "trace"      -> traced.toString,
      "input"      -> Json.obj(Seq("edges" -> inputRows.toString, "vertices" -> vertices.toString,
                                   "components" -> components.toString)),
      "environment" -> Json.obj(Bench.settings.map { case (k, v) => k -> Json.str(v) } ++ Seq(
                        "spark_version" -> Json.str(spark.version),
                        "java_version" -> Json.str(System.getProperty("java.version")),
                        "max_heap_mb" -> (Runtime.getRuntime.maxMemory >> 20).toString)),
      "correct"    -> (failed == 0 && selfTestOk).toString,
      "attempted"  -> runs.size.toString,
      "failed"     -> failed.toString,
      "selftest"   -> Json.obj(selfTest.map { case (k, v) => k -> Json.str(v) }),
      "metrics"    -> Json.obj((endToEnd ++ perLayer).map(metricJson)),
      "runs"       -> Json.arr(runs.map(runJson).toSeq),
      "spans"      -> Json.arr(trace.summary.map { case (name, n, total, self) =>
                        Json.obj(Seq("name" -> Json.str(name), "count" -> n.toString,
                                     "total_s" -> Json.num(total), "self_s" -> Json.num(self)))
                      })))
  }
}

object Bench {
  /** The pinned Spark settings; none is read from the environment. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())
  val settings: Seq[(String, String)] = Seq(
    "spark.master"                         -> s"local[$cores]",
    "spark.sql.shuffle.partitions"         -> "8",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.enabled"                     -> "false",
    "spark.driver.host"                    -> "127.0.0.1")

  def session(): SparkSession = {
    val spark = settings.foldLeft(SparkSession.builder.appName("perfbench")) {
      case (b, (k, v)) => b.config(k, v)
    }.getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }
}

object Main {
  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: perfbench.Main --workload " +
      Workloads.all.map(_.name).mkString("|") + " --seed N --seconds S --trace 0|1")
    sys.exit(2)
  }

  def main(argv: Array[String]): Unit = {
    if (argv.length % 2 != 0) usage("arguments come in --name value pairs")
    val opts = argv.grouped(2).map(p => p(0).stripPrefix("--") -> p(1)).toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val wl = Workloads.byName(opt("workload")).getOrElse(usage(s"unknown workload ${opt("workload")}"))
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, got $t")
    }
    val result = new Bench(wl, opt("seed").toLong, opt("seconds").toDouble, trace).run()
    println(s"PERFBENCH $result")
  }
}
