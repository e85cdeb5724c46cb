package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Waits until every queued listener event has been delivered.
  *
  * Listener events arrive asynchronously; counters read before the bus
  * drains would miss the tail of a run. Spark keeps the drain package-private.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
