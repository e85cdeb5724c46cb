package perfbench

import scala.collection.mutable

/** Checks a labelling as a partition against union-find's min labels. */
object Partition {

  /** None when `labels` (v, r) label every vertex of `expected` exactly once
    * and, normalised to the minimum vertex of each label, equal `expected`;
    * otherwise the first difference found.
    */
  def mismatch(labels: Array[(Long, Long)], expected: mutable.LongMap[Long]): Option[String] = {
    if (labels.length != expected.size)
      return Some(s"${labels.length} labelled rows for ${expected.size} vertices")
    val minOf = mutable.LongMap.empty[Long]
    labels.foreach { case (v, r) => minOf(r) = math.min(minOf.getOrElse(r, Long.MaxValue), v) }
    val seen = mutable.LongMap.empty[Unit]
    labels.foreach { case (v, r) =>
      if (seen.put(v, ()).isDefined) return Some(s"vertex $v labelled twice")
      expected.get(v) match {
        case None                      => return Some(s"vertex $v is not in the input")
        case Some(m) if m != minOf(r)  => return Some(s"vertex $v is with ${minOf(r)}, expected $m")
        case _                         =>
      }
    }
    None
  }

  /** Self-test of [[mismatch]] on the oracle's own partition: a consistent
    * relabelling must pass; relabelling one vertex of a non-singleton
    * component and merging two components must both be caught. Returns
    * case -> outcome, and whether every outcome is the expected one.
    */
  def selfTest(expected: mutable.LongMap[Long]): (Seq[(String, String)], Boolean) = {
    // An odd multiplier is a bijection on longs, so labels stop being minima.
    val control = expected.toArray.map { case (v, m) => (v, m * 0x9E3779B97F4A7C15L) }
    val sizes   = control.groupMapReduce(_._2)(_ => 1)(_ + _)
    val (big, bigSize) = sizes.maxBy(_._2)
    val fresh   = Iterator.iterate(0L)(_ + 1).find(l => !sizes.contains(l)).get
    val cases = Seq(
      ("control", Some(control), true),
      ("relabel_one",
        Option.when(bigSize >= 2) {
          val i = control.indexWhere(_._2 == big)
          control.updated(i, (control(i)._1, fresh))
        }, false),
      ("merge_two",
        Option.when(sizes.size >= 2) {
          val other = sizes.keysIterator.find(_ != big).get
          control.map { case (v, r) => (v, if (r == other) big else r) }
        }, false))
    val outcomes = cases.map {
      case (name, None, _) => (name, "n/a", true)
      case (name, Some(labels), shouldPass) =>
        val passed = mismatch(labels, expected).isEmpty
        (name, if (passed) "accepted" else "rejected", passed == shouldPass)
    }
    (outcomes.map(o => (o._1, o._2)), outcomes.forall(_._3))
  }
}
