package repro.perfbench

import repro.core.{DataMatrix, LayoutMetadata, LayoutState, Query, SimResult}
import repro.workload.Workload

/** Output checks. Each returns `None` when the output is right and a
  * message when it is not. They recompute from the data and from the
  * decisions the strategy wrappers observed; none compares against stored
  * output.
  */
object Checks {

  /** Which rows match each query, by `Query.matchesRow` over the matrix. */
  final class Truth(val data: DataMatrix, val queries: IndexedSeq[Query]) {
    val masks: Array[Array[Boolean]] = queries.toArray.map { q =>
      Array.tabulate(data.numRows)(i => q.matchesRow(data.schema, data.row(i)))
    }
    val counts: Array[Long] = masks.map(_.count(identity).toLong)
  }

  /** Soundness of skipping for one state: no partition the metadata skips
    * holds a matching row (rows routed with `Layout.bidOf`), and c(s, q) is
    * at least the query's true selectivity.
    */
  def soundness(state: LayoutState, truth: Truth): Option[String] = {
    val data = truth.data
    val bids = Array.tabulate(data.numRows)(i => state.layout.bidOf(data.row(i)))
    val skipped = new Array[Boolean](state.layout.numPartitions)
    val problems = truth.queries.indices.iterator.flatMap { j =>
      val q = truth.queries(j)
      java.util.Arrays.fill(skipped, false)
      for (p <- state.metadata.partitions if state.metadata.canSkip(p, q)) skipped(p.bid) = true
      val mask = truth.masks(j)
      var missed = 0
      var i = 0
      while (i < mask.length) { if (mask(i) && skipped(bids(i))) missed += 1; i += 1 }
      val selectivity = truth.counts(j).toDouble / data.numRows
      val cost = state.cost(q)
      if (missed > 0) Some(s"${state.id}: query ${q.id} skips $missed matching rows")
      else if (cost < selectivity) Some(s"${state.id}: query ${q.id} cost $cost < selectivity $selectivity")
      else None
    }
    problems.nextOption()
  }

  /** Accounting of one simulated run: reorganization cost is α per switch,
    * the switch count is the number of decisions the wrapper saw, and query
    * cost equals the sum replayed from those decisions with the Δ+1 delay
    * (the benchmark runs Δ = 0, so a decision made at query i takes effect
    * from query i + 1).
    */
  def accounting(res: SimResult, rec: Recorded, workload: Workload, initial: LayoutState,
                 alpha: Double): Option[String] = {
    var effective = initial
    var next = 0
    var queryCost = 0.0
    for ((q, i) <- workload.queries.iterator.zipWithIndex) {
      while (next < rec.decisions.size && rec.decisions(next)._1 + 1 <= i) {
        effective = rec.decisions(next)._2
        next += 1
      }
      queryCost += effective.cost(q)
    }
    if (res.switches != rec.decisions.size)
      Some(s"${res.name}: ${res.switches} switches but ${rec.decisions.size} decisions")
    else if (res.reorgCost != alpha * res.switches)
      Some(s"${res.name}: reorg cost ${res.reorgCost} != $alpha x ${res.switches}")
    else if (res.queryCost != queryCost)
      Some(s"${res.name}: query cost ${res.queryCost} != replayed $queryCost")
    else None
  }

  /** `fromDataFrame` and `fromMatrix` give the same statistics. */
  def sameMetadata(id: String, fromDf: LayoutMetadata, fromMatrix: LayoutMetadata): Option[String] =
    if (fromDf.partitions == fromMatrix.partitions) None
    else {
      val a = fromDf.partitions.map(p => p.bid -> p).toMap
      val b = fromMatrix.partitions.map(p => p.bid -> p).toMap
      val bad = (a.keySet ++ b.keySet).toSeq.sorted.find(bid => a.get(bid) != b.get(bid))
      Some(s"$id: fromDataFrame and fromMatrix differ at BID ${bad.getOrElse(-1)}")
    }

  def expect(what: String, got: Long, want: Long): Option[String] =
    if (got == want) None else Some(s"$what: got $got, expected $want")
}
