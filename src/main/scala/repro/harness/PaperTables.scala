package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines.{Cracker, HashToMin, TwoPhase}
import repro.core.{CcAlgorithm, RandomisedContraction, RcSparkSql}
import repro.datasets.{BenchDataset, DatasetCatalog, Generators}
import repro.graph.{BlowUpException, SpaceTracker}

/** One named claim about an experiment's output and whether it held. */
final case class Check(name: String, passed: Boolean, detail: String)

/** One rendered table: a heading for the console and its file under
  * `bench/results/`.
  */
final case class Table(title: String, file: String, text: String)

/** What one paper experiment produced: its tables, free-form notes (paper
  * numbers, histograms, ratios that are reported but not checked) and the
  * named checks of the shape the paper claims.
  */
final case class Report(tables: Seq[Table], notes: Seq[String], checks: Seq[Check]) {
  def failed: Seq[Check] = checks.filterNot(_.passed)
}

/** The one entry point for every paper experiment: Table I's complexity
  * check, Table II's datasets, Tables III–V from one sweep, and §VII-C's
  * streets comparison.
  *
  * {{{
  * sbt "runMain repro.harness.PaperTables III-V"
  * spark-submit --class repro.harness.PaperTables target/scala-2.13/repro_2.13-*.jar I II
  * }}}
  * Arguments name the experiments to run (`I`, `II`, `III-V`, `VII-C`; none
  * means all). Each table is printed and saved under `bench/results/`, each
  * check is printed, and the exit code is 1 if any check failed. Sizes follow
  * `BENCH_SCALE`; `SPARK_MASTER` and `SPARK_SHUFFLE_PARTITIONS` (default 8)
  * configure the session.
  */
object PaperTables {

  private val experiments: Seq[(String, SparkSession => Report)] = Seq(
    "I" -> (tableI(_)),
    "II" -> (tableII(_)),
    "III-V" -> (tablesIIIToV(_)),
    "VII-C" -> (sec7c(_)))

  /** Table I — the complexity summary, validated empirically:
    *
    *   Randomised Contraction : exp O(log V) steps, exp O(E) space
    *   Hash-to-Min            : O(log V) steps,     O(V²) space
    *   Two-Phase              : O(log² V) steps,    O(E) space
    *
    * Measures (a) RC rounds growing by ~constant per size doubling — i.e.
    * logarithmic — on both adversarial paths and R-MAT graphs, (b) the
    * per-round shrink factor γ staying below Theorem 1's 3/4 bound on
    * average, (c) HM's super-linear peak space on paths, and (d) TP's rounds
    * exceeding RC's (log² vs log) while its space stays linear.
    */
  def tableI(spark: SparkSession): Report = {
    val rows = scala.collection.mutable.ArrayBuffer.empty[Seq[String]]

    // (a) + (b): RC rounds and shrink factor across doubling path sizes.
    val rcRounds = Seq(4096L, 8192L, 16384L, 32768L).map { n =>
      val tracker = new SpaceTracker(algoName = "RC")
      val run = RandomisedContraction().run(Generators.path(spark, n), tracker, seed = 5L)
      val ratios = tracker.roundEdgeRows.sliding(2).collect {
        case Seq(a, b) if a > 0 => b.toDouble / a
      }.toSeq
      val meanShrink = if (ratios.nonEmpty) ratios.sum / ratios.size else 0.0
      rows += Seq(s"path $n", "RC", run.rounds.toString, f"$meanShrink%.2f",
        f"${tracker.maxLiveRows.toDouble / (n - 1)}%.1f")
      (n, run.rounds, meanShrink)
    }
    // Logarithmic rounds: one doubling adds ~constant rounds; allow noise.
    val increments = rcRounds.sliding(2).map { case Seq((_, r1, _), (_, r2, _)) => r2 - r1 }.toSeq
    // Theorem 1: expected shrink ≤ 3/4 (edge-count shrink tracks vertex
    // shrink on paths); the mean over rounds and sizes sits clearly below 0.85.
    val overallShrink = rcRounds.map(_._3).sum / rcRounds.size

    val rmatRounds = Seq(12, 13, 14).map { sc =>
      val run = RandomisedContraction().run(
        Generators.rmat(spark, scale = sc, nEdges = 8L << sc), seed = 6L)
      rows += Seq(s"rmat 2^$sc", "RC", run.rounds.toString, "", "")
      run.rounds
    }

    // (c) HM peak space on paths is super-linear (blows the 40× cap).
    val n  = 16384L
    val hm = try {
      val t = new SpaceTracker(capRows = (n - 1) * 40L, algoName = "HM")
      HashToMin.run(Generators.path(spark, n), t, seed = 5L)
      "finished (unexpected)"
    } catch { case BlowUpException(_, live, cap) => s"blew cap ($live > $cap rows)" }
    rows += Seq(s"path $n", "HM", "-", "-", hm)

    // (d) TP needs more rounds than RC (log² vs log) at equal linear space.
    val tpT = new SpaceTracker(capRows = (n - 1) * 40L, algoName = "TP")
    val tp  = TwoPhase.run(Generators.path(spark, n), tpT, seed = 5L)
    val rcN = rcRounds.find(_._1 == n).get._2
    rows += Seq(s"path $n", "TP", tp.rounds.toString, "", f"${tpT.maxLiveRows.toDouble / (n - 1)}%.1f")

    val table = TableFormat.render(
      Seq("input", "algo", "rounds", "mean shrink", "peak rows / input"), rows.toSeq)
    Report(
      Seq(Table("Table I (empirical complexity check)", "table1_complexity.txt", table)),
      Nil,
      Seq(
        Check("rc-path-rounds-logarithmic", increments.forall(_ <= 8),
          s"RC rounds added per path doubling $increments, each ≤ 8"),
        Check("rc-mean-shrink", overallShrink < 0.85,
          f"RC mean per-round edge shrink $overallShrink%.2f < 0.85"),
        Check("rc-rmat-rounds-logarithmic", rmatRounds.max - rmatRounds.min <= 6,
          s"RC rounds on R-MAT 2^12..2^14 $rmatRounds spread ≤ 6"),
        Check("hm-path-blowup", hm.startsWith("blew cap"), s"HM on path $n: $hm"),
        Check("tp-rounds-exceed-rc", tp.rounds > rcN,
          s"TP rounds ${tp.rounds} > RC rounds $rcN on path $n")))
  }

  /** Table II — dataset statistics (|V|, |E|, component count) for all
    * twelve benchmark graphs next to the paper's originals, plus the Fig. 5
    * check that component sizes of the Bitcoin-addresses and Andromeda
    * analogues are heavy-tailed.
    */
  def tableII(spark: SparkSession): Report = {
    val rows = DatasetCatalog.all.map { d =>
      val stats = BenchHarness.prepare(spark, d.build)
      stats.edges.unpersist()
      (d, stats)
    }
    val byName = rows.map { case (d, s) => d.name -> s }.toMap
    val friendster = byName("Friendster")
    val giant = friendster.componentSizes.values.max.toDouble / friendster.vertices
    val candelsGrowth = byName("Candels20").vertices.toDouble / byName("Candels10").vertices

    // Fig. 5: many more small components than large ones, with a heavy tail,
    // over log2 size buckets.
    val fig5 = Seq("Bitcoin addresses", "Andromeda").map { name =>
      val sizes = byName(name).componentSizes.values.toSeq
      val hist  = sizes.groupBy(s => math.min(20, (math.log(s.toDouble) / math.log(2)).toInt))
        .view.mapValues(_.size).toSeq.sortBy(_._1)
      val counts = hist.map(_._2.toDouble)
      val (small, large) = hist.partition(_._1 <= 2)
      val note = (s"Fig. 5 check — $name component-size histogram (log2 buckets):" +:
        hist.map { case (b, n) => f"  2^$b%-2d ≤ size < 2^${b + 1}%-2d : $n" }).mkString("\n")
      val checks = Seq(
        Check(s"fig5-peak-small ($name)", counts.take(2).max == counts.max,
          "component frequency peaks in the two smallest size buckets"),
        Check(s"fig5-small-dominate ($name)", small.map(_._2).sum > 4 * large.map(_._2).sum,
          s"${small.map(_._2).sum} components of size < 8 > 4 × ${large.map(_._2).sum} larger ones"),
        Check(s"fig5-spread ($name)", hist.size >= 3, s"${hist.size} size buckets ≥ 3"))
      (note, checks)
    }

    Report(
      Seq(Table("Table II (datasets; ours at bench scale vs paper)", "table2_datasets.txt",
        TableFormat.tableII(rows))),
      fig5.map(_._1),
      Seq(
        Check("path100m-one-component", byName("Path100M").components == 1L,
          s"Path100M has ${byName("Path100M").components} component(s), expected 1"),
        Check("pathunion10-ten-components", byName("PathUnion10").components == 10L,
          s"PathUnion10 has ${byName("PathUnion10").components} components, expected 10"),
        Check("friendster-giant-component", giant > 0.5,
          f"largest Friendster component holds $giant%.2f of the vertices > 0.5"),
        Check("candels-doubles", candelsGrowth > 1.6,
          f"Candels20 / Candels10 vertices $candelsGrowth%.2f > 1.6"),
        Check("datasets-nonempty", rows.forall(_._2.rows > 0), "every dataset has edges")) ++
        fig5.flatMap(_._2))
  }

  /** Tables III, IV and V — one sweep of `algos` over `datasets` produces all
    * three tables (runtime, max space, total written), as one database run
    * did in the paper. Checks that name a dataset or an algorithm apply only
    * when it is in the sweep.
    */
  def tablesIIIToV(spark: SparkSession,
                   datasets: Seq[BenchDataset] = DatasetCatalog.all,
                   algos: Seq[CcAlgorithm] = BenchHarness.tableAlgos): Report = {
    val names   = algos.map(_.name)
    val results = BenchHarness.sweep(spark, datasets, algos)
    val rc      = results.filter(_.algo == "RC")

    // How often an algorithm is smallest among each dataset's finished cells.
    val okByDataset = results.filter(_.status == "ok").groupBy(_.dataset)
    def wins(algo: String, space: BenchResult => Long): Int = okByDataset.count { case (_, rs) =>
      rs.find(_.algo == algo).exists(w => rs.forall(space(_) >= space(w)))
    }
    val tpWins = wins("TP", _.maxLiveRows)
    val rcWinsWritten = wins("RC", _.totalWrittenRows)

    // HM exceeds the space cap on the sequential path (Tables III/IV "—").
    val hmPath = results.find(r => r.algo == "HM" && r.dataset == "Path100M").map { r =>
      Check("hm-path-dnf", r.status == "—", s"HM on Path100M: ${r.status}, expected —")
    }
    // Quasi-linear scalability on the Candels series (§VII-B): runtime grows
    // roughly linearly with size, far below quadratically.
    val candels = rc.filter(_.dataset.startsWith("Candels")).sortBy(_.inputRows)
    val candelsScaling = Option.when(candels.size >= 3) {
      val sizeRatio = candels.last.inputRows.toDouble / candels.head.inputRows
      val timeRatio = candels.last.seconds / candels.head.seconds
      Check("rc-candels-subquadratic", timeRatio < sizeRatio * sizeRatio,
        f"RC Candels size ×$sizeRatio%.1f → time ×$timeRatio%.1f < ×${sizeRatio * sizeRatio}%.1f")
    }

    Report(
      Seq(
        Table("Table III (runtimes, seconds)", "table3_runtimes.txt",
          TableFormat.tableIII(results, names)),
        Table("Table IV (max space, MB @16B/row)", "table4_maxspace.txt",
          TableFormat.tableIV(results, names)),
        Table("Table V (total written, MB @16B/row)", "table5_written.txt",
          TableFormat.tableV(results, names)),
        Table("Tables III–V raw cells", "tables345_raw.tsv", TableFormat.tsv(results))),
      Seq(s"RC least-total-written on $rcWinsWritten/${okByDataset.size} datasets " +
        "(paper: best in most cases, worse on Friendster/RMAT)"),
      Seq(
        Check("no-bad-cell", results.forall(r => r.status == "ok" || r.status == "—"),
          s"wrong labellings: ${results.filter(_.status == "BAD").map(r => (r.dataset, r.algo))}"),
        Check("rc-always-ok", rc.forall(_.status == "ok"),
          s"RC did not finish on ${rc.filterNot(_.status == "ok").map(_.dataset)}"),
        Check("tp-least-max-space", tpWins >= okByDataset.size / 2,
          s"TP smallest max space on $tpWins/${okByDataset.size} datasets, at least half")) ++
        hmPath ++ candelsScaling)
  }

  /** §VII-C — the "Streets of Italy" comparison and the engine comparison.
    *
    * Paper numbers: Cracker's own best case (Streets of Italy) took 1338 s in
    * its published Spark implementation; in-database RC finished in 143 s and
    * the in-database Cracker port in 261 s (RC ≈ 1.8× faster than Cracker on
    * the same engine). Separately, the same RC SQL ran ~2.3× slower in Spark
    * SQL than in HAWQ. A second engine is out of reach, so this reproduces
    * the same-engine claims: RC vs the Cracker port on the streets graph, and
    * RC-as-SQL-text vs RC-as-DataFrame as the closest same-SQL/two-API pair
    * (DESIGN.md §4).
    */
  def sec7c(spark: SparkSession): Report = {
    val stats = BenchHarness.prepare(spark, DatasetCatalog.streets)
    val rcDf  = BenchHarness.runOne(stats, "Streets", RandomisedContraction(), seed = 3L)
    val rcSql = BenchHarness.runOne(stats, "Streets", RcSparkSql, seed = 3L)
    val cr    = BenchHarness.runOne(stats, "Streets", Cracker, seed = 3L)
    stats.edges.unpersist()

    val rows = Seq(rcDf, rcSql, cr).map(r =>
      Seq(r.algo, r.status, f"${r.seconds}%.1f", r.rounds.toString, f"${r.maxMb}%.1f"))
    val table = TableFormat.render(Seq("algo", "status", "seconds", "rounds", "max MB"), rows)
    // The SQL-text and DataFrame paths run the same logical plan family, so
    // their gap is engine overhead, not algorithmic: well within the paper's
    // 2.3× cross-engine factor in either direction.
    val gap = rcSql.seconds / rcDf.seconds
    Report(
      Seq(Table(s"§VII-C (streets: |V|=${stats.vertices}, |E|=${stats.rows})",
        "sec7c_streets.txt", table)),
      Seq("paper: RC in-DB 143 s, Cracker in-DB 261 s, Cracker original Spark 1338 s;\n" +
        "       RC in Spark SQL ≈ 2.3× RC in-DB (HAWQ optimiser maturity)"),
      Seq(
        Check("all-ok", Seq(rcDf, rcSql, cr).forall(_.status == "ok"),
          s"statuses ${Seq(rcDf, rcSql, cr).map(r => s"${r.algo}=${r.status}").mkString(", ")}"),
        Check("rc-beats-cracker", rcDf.seconds < cr.seconds,
          f"RC ${rcDf.seconds}%.1f s < Cracker ${cr.seconds}%.1f s on streets"),
        Check("sql-dataframe-gap", gap < 4.0 && gap > 0.25,
          f"RC-sql / RC-DataFrame time ratio $gap%.2f within (0.25, 4.0)")))
  }

  /** One cheap run of each table algorithm, so JIT and codegen warm-up is not
    * billed to the first measured cell.
    */
  private def warmup(spark: SparkSession): Unit = {
    val tiny = Generators.rmat(spark, scale = 8, nEdges = 2000)
    BenchHarness.tableAlgos.foreach(_.run(tiny, seed = 1L).labels.count())
  }

  def main(args: Array[String]): Unit = {
    val unknown = args.filterNot(a => experiments.exists(_._1 == a))
    require(unknown.isEmpty,
      s"unknown table(s) ${unknown.mkString(", ")}; expected any of ${experiments.map(_._1).mkString(", ")}")
    val chosen = if (args.isEmpty) experiments else experiments.filter(e => args.contains(e._1))

    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("PaperTables")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "8"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    warmup(spark)

    val failed = chosen.flatMap { case (experiment, run) =>
      val report = run(spark)
      report.tables.foreach { t =>
        println(s"\n=== ${t.title} ===\n${t.text}")
        TableFormat.save(t.file, t.text)
      }
      report.notes.foreach(n => println(s"\n$n"))
      println()
      report.checks.foreach { c =>
        println(s"${if (c.passed) "PASS" else "FAIL"} $experiment/${c.name}: ${c.detail}")
      }
      report.failed.map(c => s"$experiment/${c.name}")
    }
    spark.stop()
    if (failed.nonEmpty) {
      println(s"\n${failed.size} check(s) failed: ${failed.mkString(", ")}")
      sys.exit(1)
    }
  }
}
