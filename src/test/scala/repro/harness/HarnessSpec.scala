package repro.harness

import org.apache.spark.sql.DataFrame
import repro.ReproSpec
import repro.baselines.HashToMin
import repro.core.{CcAlgorithm, CcRun, RandomisedContraction}
import repro.datasets.{BenchDataset, Generators}
import repro.graph.SpaceTracker
import repro.testutil.Graphs

class HarnessSpec extends ReproSpec {

  private def tinyRmat = BenchDataset("tiny-rmat",
    sp => Generators.rmat(sp, scale = 8, nEdges = 600), "-", "-", "-")

  private def tinyPath = BenchDataset("tiny-path",
    sp => Generators.path(sp, 2500), "-", "-", "-")

  // Components {1, 2, 3} and {10, 11, 12}; MovesOneVertex moves 3 into the
  // second, so its vertex and component counts still match.
  private def twoPaths = BenchDataset("two-paths",
    sp => Graphs.toDf(sp, Seq((1L, 2L), (2L, 3L), (10L, 11L), (11L, 12L))), "-", "-", "-")

  private object MovesOneVertex extends CcAlgorithm {
    val name = "stub"
    def run(e: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
      val labels = Seq(1L -> 1L, 2L -> 1L, 3L -> 10L, 10L -> 10L, 11L -> 10L, 12L -> 10L)
      CcRun(Graphs.toDf(spark, labels).toDF("v", "r"), 1, tracker)
    }
  }

  test("prepare computes exact dataset statistics") {
    val stats = BenchHarness.prepare(spark, tinyPath.build)
    assert(stats.rows == 2499L)
    assert(stats.vertices == 2500L)
    assert(stats.components == 1L)
    assert(stats.componentSizes.values.sum == 2500L)
  }

  test("runOne returns ok with positive time, rounds and space for RC") {
    val stats = BenchHarness.prepare(spark, tinyRmat.build)
    val r     = BenchHarness.runOne(stats, "tiny-rmat", RandomisedContraction())
    assert(r.status == "ok")
    assert(r.seconds > 0)
    assert(r.rounds >= 1)
    assert(r.maxLiveRows >= r.inputRows) // at least the doubled setup table
    assert(r.totalWrittenRows >= r.maxLiveRows)
  }

  test("runOne reports '—' when the algorithm hits the space cap (HM on a path)") {
    val stats = BenchHarness.prepare(spark, tinyPath.build)
    val r     = BenchHarness.runOne(stats, "tiny-path", HashToMin)
    assert(r.status == "—", s"expected blow-up, got ${r.status} with max=${r.maxLiveRows}")
  }

  test("runOne marks a labelling 'BAD' when one vertex sits in the wrong component") {
    val stats = BenchHarness.prepare(spark, twoPaths.build)
    assert((stats.vertices, stats.components) == ((6L, 2L)))
    assert(BenchHarness.runOne(stats, "two-paths", MovesOneVertex).status == "BAD")
  }

  test("sweep covers all dataset × algorithm cells") {
    val report = PaperTables.tablesIIIToV(spark, Seq(tinyRmat),
      Seq(RandomisedContraction(), repro.baselines.TwoPhase))
    val tables = report.tables.map(t => t.file -> t.text).toMap
    for (f <- Seq("table3_runtimes.txt", "table4_maxspace.txt", "table5_written.txt")) {
      val lines = tables(f).linesIterator.toSeq
      assert(lines.size == 3, s"$f: header + separator + 1 dataset row")
      assert(lines.last.startsWith("tiny-rmat"))
      assert(!lines.last.contains("BAD") && !lines.last.contains("—"))
    }
    val cells = tables("tables345_raw.tsv").linesIterator.drop(1).map(_.split('\t')).toSeq
    assert(cells.map(c => (c(0), c(1), c(2))).toSet ==
      Set(("tiny-rmat", "RC", "ok"), ("tiny-rmat", "TP", "ok")))
    assert(report.checks.find(_.name == "no-bad-cell").exists(_.passed))
    // Dataset-specific checks (HM on Path100M, the Candels series) do not apply.
    assert(report.checks.map(_.name).toSet ==
      Set("no-bad-cell", "rc-always-ok", "tp-least-max-space"))
  }

  test("a wrong labelling in the sweep is a failed named check") {
    val report = PaperTables.tablesIIIToV(spark, Seq(twoPaths), Seq(MovesOneVertex))
    assert(report.tables.head.text.linesIterator.toSeq.last.contains("BAD"))
    assert(report.failed.map(_.name) == Seq("no-bad-cell"))
    assert(report.failed.head.detail.contains("(two-paths,stub)"))
  }

  test("capRows scales with input but has a floor") {
    assert(BenchHarness.capRows(10L) == 2_000_000L)
    assert(BenchHarness.capRows(1_000_000L) == 40_000_000L)
  }

  test("table renderers produce one row per dataset and a '—' cell for DNFs") {
    val rs = Seq(
      BenchResult("d1", "RC", 1.5, 4, 100, 400, 900, "ok"),
      BenchResult("d1", "HM", 2.0, 3, 100, 4000, 9000, "—"),
      BenchResult("d2", "RC", 0.5, 2, 50, 200, 450, "ok"),
      BenchResult("d2", "HM", 0.7, 2, 50, 210, 500, "ok"))
    val t3 = TableFormat.tableIII(rs, Seq("RC", "HM"))
    assert(t3.linesIterator.size == 4) // header + separator + 2 rows
    assert(t3.contains("—"))
    assert(t3.contains("1.5"))
    val t4 = TableFormat.tableIV(rs, Seq("RC", "HM"))
    assert(t4.contains("input MB"))
    val t5 = TableFormat.tableV(rs, Seq("RC", "HM"))
    assert(t5.contains("0.0")) // 450 rows * 16B = 0.0072 MB
    val tsv = TableFormat.tsv(rs)
    assert(tsv.linesIterator.size == 5)
  }

  test("MB conversions use 16 bytes per row") {
    val r = BenchResult("d", "RC", 1.0, 1, 1_000_000L, 2_000_000L, 3_000_000L, "ok")
    assert(math.abs(r.inputMb - 16.0) < 1e-9)
    assert(math.abs(r.maxMb - 32.0) < 1e-9)
    assert(math.abs(r.writtenMb - 48.0) < 1e-9)
  }
}
