package repro.graph

import repro.ReproSpec

class SpaceTrackerSpec extends ReproSpec {

  test("create/drop tracks live and written rows like CREATE/DROP TABLE") {
    val t = new SpaceTracker
    t.create("a", 100L)
    t.create("b", 50L)
    assert(t.liveRows == 150L)
    assert(t.maxLiveRows == 150L)
    t.drop("a")
    assert(t.liveRows == 50L)
    assert(t.maxLiveRows == 150L) // the peak is remembered
    t.create("c", 10L)
    assert(t.totalWrittenRows == 160L) // drops never reduce total written
  }

  test("re-materialising a live name creates the new table, then drops the old") {
    val t = new SpaceTracker
    t.create("x", 5L)
    t.materialize("e", spark.range(100).selectExpr("id as v", "id as w"))
    t.materialize("e", spark.range(30).selectExpr("id as v", "id as w"))
    assert(t.maxLiveRows == 135L)      // old and new e were live together
    assert(t.totalWrittenRows == 135L) // the old e was not written again
    assert(t.liveRows == 35L)          // only the new e is live
    t.drop("e")
    assert(t.liveRows == 5L)
  }

  test("dropping a table that is not live fails, naming table and algorithm") {
    val t = new SpaceTracker(algoName = "X")
    t.create("a", 1L)
    t.drop("a")
    val ex = intercept[IllegalArgumentException](t.drop("a"))
    assert(ex.getMessage.contains("X") && ex.getMessage.contains("a"))
    assert(intercept[IllegalArgumentException](t.drop("typo")).getMessage.contains("typo"))
  }

  test("cap violation throws BlowUpException") {
    val t = new SpaceTracker(capRows = 100L, algoName = "X")
    t.create("a", 60L)
    val ex = intercept[BlowUpException](t.create("b", 60L))
    assert(ex.algo == "X")
    assert(ex.liveRows == 120L)
  }

  test("materialize counts the DataFrame and truncates lineage") {
    val df       = spark.range(42).selectExpr("id as v", "id as w")
    val t        = new SpaceTracker
    val (out, n) = t.materialize("e", df)
    assert(n == 42L)
    assert(out.count() == 42L)
    assert(t.liveRows == 42L)
  }

  test("recordRound accumulates the shrink telemetry") {
    val t = new SpaceTracker
    t.recordRound(10L); t.recordRound(4L); t.recordRound(0L)
    assert(t.roundEdgeRows == Seq(10L, 4L, 0L))
  }
}
