package repro.perfbench

import repro.core.{DataMatrix, LayoutState, Query, Strategy}
import repro.layout.{Layout, LayoutGen}
import scala.collection.mutable

/** A [[LayoutGen]] that puts a span around every `generate` call. */
final class TracedGen(inner: LayoutGen, trace: Trace) extends LayoutGen {
  override def name: String = inner.name
  override def generate(sample: DataMatrix, queries: Seq[Query], k: Int, id: String): Layout =
    trace.span("layout.generate")(inner.generate(sample, queries, k, id))
}

/** A [[Strategy]] wrapper that puts spans around both hooks and logs every
  * switch decision with the index of the query it was made at. The
  * accounting check replays query cost from this log.
  *
  * @param tag            span prefix, e.g. `oreo` gives `strategy.oreo.observe`
  * @param afterCandidate called after each `onCandidate`, for state-space checks
  */
final class Recorded(inner: Strategy, tag: String, trace: Trace,
                     afterCandidate: () => Unit = () => ()) extends Strategy {
  override def name: String = inner.name
  private val observeSpan = s"strategy.$tag.observe"
  private val candidateSpan = s"strategy.$tag.on_candidate"
  private var query = -1
  val decisions: mutable.ArrayBuffer[(Int, LayoutState)] = mutable.ArrayBuffer.empty

  override def observe(q: Query): Option[LayoutState] = {
    query += 1
    val d = trace.span(observeSpan)(inner.observe(q))
    d.foreach(s => decisions += ((query, s)))
    d
  }

  override def onCandidate(c: LayoutState): Option[LayoutState] = {
    val d = trace.span(candidateSpan)(inner.onCandidate(c))
    d.foreach(s => decisions += ((query, s)))
    afterCandidate()
    d
  }

  override def current: LayoutState = inner.current
}
