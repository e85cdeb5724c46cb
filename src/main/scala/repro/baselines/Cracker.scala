package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CcAlgorithm, CcRun}
import repro.graph.{GraphOps, SpaceTracker}

/** Cracker [Lulli et al., TPDS 2017] — vertex-pruning CC, the Spark-native
  * comparator in the paper. Reimplemented from the paper's description
  * (Min-Selection + Pruning + propagation tree), without the "Salty"
  * optimisations, as a direct dataflow→SQL translation (§VII).
  *
  * Per iteration:
  *  1. Min-Selection: every node u computes vmin = min(N[u]) and notifies
  *     every member of N[u] of vmin → the "seed candidate" graph H, where
  *     NH(v) is the set of minima v was told about.
  *  2. Pruning: a node v that nobody (itself included) selected as a minimum
  *     (v ∉ NH(v)) is pruned: it adds the tree edge v → min(NH(v)) and drops
  *     out. Every node links the minima it heard of to min(NH(v)), keeping
  *     the surviving seed candidates connected. A pruned node can never be a
  *     later round's minimum, so each vertex enters the tree at most once;
  *     never-pruned vertices are the component roots.
  *  3. When the graph is empty, component labels propagate from the roots
  *     down the forest; we use pointer jumping, so propagation takes
  *     O(log depth) joins (roots are absent from the tree and label
  *     themselves in the final left-outer coalesce).
  */
case object Cracker extends CcAlgorithm {
  override val name = "CR"

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val spark = edges.sparkSession
    val raw   = GraphOps.asEdges(edges)

    // Bidirectional, loop-free working graph.
    val (g0, g0Rows) = tracker.materialize("G", GraphOps.undirect(GraphOps.canonical(raw)))
    var g     = g0
    var trees = List.empty[DataFrame] // tree-edge tables T_round, newest first
    val rounds = if (g0Rows == 0L) 0 else loop(10000) { round =>
      // 1. Min-Selection: vmin over the closed neighbourhood, told to N[u].
      val m = g.groupBy(col("v")).agg(least(col("v"), min(col("w"))).as("vmin"))
      val h = g.join(m, "v").select(col("w").as("node"), col("vmin"))
        .union(m.select(col("v").as("node"), col("vmin")))
        .distinct()
      val (hm, _) = tracker.materialize("H", h)

      // 2. Pruning: per node, the min of the heard-of minima, and whether the
      // node itself is among them (i.e. survives as a seed candidate).
      val a = hm.groupBy(col("node")).agg(
        min(col("vmin")).as("vmin2"),
        max(when(col("vmin") === col("node"), 1).otherwise(0)).as("is_cand"))
      val (am, _) = tracker.materialize("A", a)

      // Only pruned nodes enter the propagation tree. A never-pruned node is
      // its component's root and labels itself in the final coalesce — adding
      // explicit (root, root) rows here would duplicate each round the root
      // survives and blow up the pointer-jumping joins.
      val pruned = am.where(col("is_cand") === 0)
        .select(col("node").as("child"), col("vmin2").as("parent"))
      val (t, _) = tracker.materialize(s"T$round", pruned)
      trees ::= t

      // Next graph: connect every heard-of minimum to the node's overall
      // minimum (bidirectional for the next Min-Selection).
      val nextDirected = hm.join(am, "node").where(col("vmin") =!= col("vmin2"))
        .select(col("vmin").as("v"), col("vmin2").as("w"))
      val (ng, ngRows) = tracker.materialize("G", GraphOps.undirect(nextDirected).distinct())
      tracker.drop("H"); tracker.drop("A")
      tracker.recordRound(ngRows)
      g = ng
      ngRows == 0L
    }
    tracker.drop("G")

    // Propagate labels down the forest by pointer jumping.
    val allTrees = trees match {
      case Nil          => spark.range(0).select(col("id").as("child"), col("id").as("parent"))
      case head :: tail => tail.foldLeft(head)(_ union _)
    }
    var (p, _) = tracker.materialize("P", allTrees)
    (1 to rounds).foreach(i => tracker.drop(s"T$i"))
    loop(64) { _ =>
      val gp = p.select(col("child").as("c2"), col("parent").as("gp"))
      val jumped = p.join(gp, p("parent") === gp("c2"), "left_outer")
        .select(col("child"), coalesce(col("gp"), col("parent")).as("parent"))
      val (np, _) = tracker.materialize("P", jumped)
      val changed = np.as("a").join(p.as("b"), col("a.child") === col("b.child"))
        .where(col("a.parent") =!= col("b.parent")).limit(1).count()
      p = np
      changed == 0L
    }

    CcRun(GraphOps.labelEveryVertex(raw, p.select(col("child").as("v"), col("parent").as("r"))),
      rounds, tracker)
  }
}
