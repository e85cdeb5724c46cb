package perfbench

import scala.collection.mutable.ArrayBuffer

/** Spans the benchmark records around its own calls into the program.
  *
  * Spans live in memory; [[summary]] gives, per span name, the call count,
  * the total time and the self time (duration minus the time covered by
  * direct child spans). A disabled trace only runs the body.
  */
final class Trace(val enabled: Boolean) {
  private final class Span(val name: String, val parent: Int, val start: Long) { var end = 0L }
  private val spans = ArrayBuffer.empty[Span]
  private var open  = List.empty[Int]

  def apply[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val span = new Span(name, open.headOption.getOrElse(-1), System.nanoTime())
      spans += span
      open = (spans.size - 1) :: open
      try body
      finally { span.end = System.nanoTime(); open = open.tail }
    }

  /** (name, count, total seconds, self seconds), in order of first use. */
  def summary: Seq[(String, Int, Double, Double)] = {
    val childNs = new Array[Long](spans.size)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.end - s.start)
    spans.indices.groupBy(i => spans(i).name).toSeq
      .sortBy(_._2.min)
      .map { case (name, ids) =>
        val total = ids.map(i => spans(i).end - spans(i).start).sum
        (name, ids.size, total / 1e9, (total - ids.map(childNs).sum) / 1e9)
      }
  }
}
