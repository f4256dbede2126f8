package repro.perfbench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.CandidateStream.{GenConfig, Source, SW, SWRS}
import repro.core._
import repro.exp.{DatasetSpec, Datasets, Lab}
import repro.layout.{QdTreeGen, ZOrderGen}
import repro.spark.{BidTable, PhysicalReorg}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

/** One benchmark workload. A run replays the same simulated experiment
  * cell (candidates, then every strategy) three times, and more while the
  * run's seconds have not passed; every cell does the same work, so the
  * number of cells does not change what a metric means. Then it makes one
  * physical pass: the BID-partitioned table, written in the default layout,
  * is reorganized into the static Qd-tree and then into the static Z-order,
  * and the same batch of rewritten `BID IN (...)` queries follows each
  * reorganization.
  *
  * @param segments   template segments in the simulated stream
  * @param source     candidate source (SW: one per epoch; SWRS: two)
  * @param epsilon    OREO's admission distance
  * @param regret     run the Regret baseline in the cell (Static, Greedy and
  *                   OREO always run)
  */
final case class Spec(name: String, ds: DatasetSpec, segments: Int, source: Source,
                      epsilon: Double, regret: Boolean)

object Spec {
  val Sf = 0.02
  val Queries = 6000
  val Alpha = 80.0
  val K = 32
  /** Data-generation repetitions whose median enters `setup_s`. */
  val SetupReps = 3
  /** Cells every run makes: the repeatability check needs two, and the
    * third lets the rates in `candidates_per_s` and `oreo_qps` average over
    * ~15 s of a host whose speed swings within seconds.
    */
  val MinCells = 3

  val all: Seq[Spec] = Seq(
    Spec("tpch-fig3", Datasets.tpch, 20, SW, 0.08, regret = true),
    Spec("telemetry-churn", Datasets.telemetry, 16, SWRS, 0.02, regret = false),
  )

  def named(name: String): Spec = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name; one of ${all.map(_.name).mkString(", ")}"))
}

/** Runs one workload, checks its outputs and reports its metrics; see
  * README.md for what each metric means.
  */
final class Bench(spec: Spec, seed: Long, seconds: Double, trace: Trace,
                  spark: SparkSession, workDir: String, traceFile: String) {
  import Spec._

  /** Rewritten queries after each of the two reorganizations: fifty in
    * all, so that ten lie beyond the p80.
    */
  private val QueriesPerReorg = 25
  /** Untimed rewritten queries that warm up the physical path. */
  private val WarmUpQueries = 10
  /** Queries in the fixed sample used by the soundness check and cost probe. */
  private val SampleQueries = 16
  private val MaxStates = 12

  private var attempted = 0L
  private var failed = 0L

  /** Count one operation; a failed check marks it failed. */
  private def op(checks: Option[String]*): Unit = {
    attempted += 1
    val problems = checks.flatten
    if (problems.nonEmpty) {
      failed += 1
      problems.foreach(p => Console.err.println(s"[perfbench] check failed: $p"))
    }
  }

  /** Progress line on standard error, stamped with seconds since JVM start. */
  private def log(msg: String): Unit = Console.err.println(
    f"[perfbench] ${(System.currentTimeMillis() - jvmStartMs) / 1e3}%7.2f s  $msg")
  private var jvmStartMs = 0L

  private def now: Long = System.nanoTime()
  private def since(t0: Long): Double = (now - t0) / 1e9

  private val gen = new TracedGen(QdTreeGen, trace)
  private val zgen = new TracedGen(ZOrderGen, trace)
  private val schema = spec.ds.schema
  /** The simulated cell replays the query stream the Figure 3 harness uses
    * for the dataset, with the paper's three OREO seeds, so its work is the
    * same in every run: the stream's template mix and OREO's seeds each
    * change a cell's work by up to 2.5x. The run seed picks the sampled
    * queries of the soundness check and of the physical batch.
    */
  private val workloadSeed = 42L + spec.ds.name.hashCode % 97
  private val oreoSeeds = Seq(1L, 2L, 3L)

  // measurements
  private val cellSeconds = mutable.ArrayBuffer.empty[Double]
  private var candidateSeconds = 0.0
  private var candidatesBuilt = 0L
  private var oreoSeconds = 0.0
  private var oreoQueries = 0L
  private var oreoTotal = Double.NaN
  private val reorgSeconds = mutable.ArrayBuffer.empty[Double]
  private val rewriteSeconds = mutable.ArrayBuffer.empty[Double]
  private val refreshSeconds = mutable.ArrayBuffer.empty[Double]
  private val queryMs = mutable.ArrayBuffer.empty[Double]
  private val tableBytes = mutable.ArrayBuffer.empty[Double]
  private val tableFiles = mutable.ArrayBuffer.empty[Double]
  private val partitionsRead = mutable.ArrayBuffer.empty[Double]
  private val rowsRead = mutable.ArrayBuffer.empty[Double]
  private val counts = mutable.LinkedHashMap.empty[String, Double]
  private var firstTotals: Seq[Double] = Nil
  private var firstCandidates: Seq[Candidate] = Nil
  private var firstStatic: LayoutState = _

  /** Set up, measure, check; returns (attempted, failed, metrics). */
  def run(jvmStartMs: Long, sparkUpS: Double): (Long, Long, Seq[(String, Double, String)]) = {
    this.jvmStartMs = jvmStartMs
    log(s"${spec.name} seed $seed: Spark up")
    val jvm0 = JvmFacts.snapshot()
    val setup0 = now

    // L0: generate + collect the table and the query stream, several times
    val reps = (1 to SetupReps).map { _ =>
      val t0 = now
      val data = trace.span("data.gen_collect")(Lab.matrix(spark, spec.ds, Sf))
      val dataS = since(t0)
      val t1 = now
      val workload = trace.span("workload.gen")(
        spec.ds.mkWorkload(Queries, spec.segments, workloadSeed))
      (data, workload, dataS, since(t1))
    }
    val (data, workload, _, _) = reps.last
    val repSeconds = reps.map(r => r._3 + r._4)

    log(s"data and workload generated ${SetupReps} times")
    val rng = new Random(seed)
    val sample = Vector.fill(SampleQueries)(workload.queries(rng.nextInt(workload.size)))
    val physQueries = Vector.fill(QueriesPerReorg)(workload.queries(rng.nextInt(workload.size)))
    val sampleTruth = new Checks.Truth(data, sample)
    val physTruth = new Checks.Truth(data, physQueries)

    // the table starts in the default layout and is reorganized into the
    // static Qd-tree, then into the static Z-order
    val default = Lab.defaultState(data, spec.ds, K)
    op(Checks.soundness(default, sampleTruth))
    val reorgInto = Seq(Lab.staticState(data, workload, gen, K),
      Lab.staticState(data, workload, zgen, K))
    val tables = Seq(s"$workDir/table-a", s"$workDir/table-b")
    tables.foreach(PhysicalReorg.deleteDir)
    val writeS = PhysicalReorg.timed(trace.span("spark.write")(
      BidTable.write(spec.ds.mkDf(spark, Sf), schema, default.layout, tables(0))))
    var tableAt = 0
    log("layouts built, table written")

    // warm-up, untimed: a short cell, and a few rewritten queries on the
    // freshly written table
    op(warmUp(data, workload, default))
    val initial = BidTable.read(spark, tables(0))
    for (q <- physQueries.take(WarmUpQueries)) BidTable.rewrite(initial, q, default.metadata).count()

    val setupS = (now - setup0) / 1e9 - repSeconds.sum + Quantiles.median(repSeconds) + sparkUpS
    log("warmed up")
    val loop0 = now
    val spans0 = trace.size
    var cells = 0
    var lastCandidates: Seq[Candidate] = Nil
    while (cells < MinCells || since(loop0) < seconds) {
      lastCandidates = cell(cells, data, workload, default, sampleTruth)
      cells += 1
    }
    val cellSpans = (spans0, trace.size)
    for (state <- reorgInto) {
      reorganize(tables(tableAt), tables(1 - tableAt), state, data, physQueries, physTruth)
      PhysicalReorg.deleteDir(tables(tableAt))
      tableAt = 1 - tableAt
    }
    log("physical pass done")

    val traced = if (trace.enabled) probes(lastCandidates, data, sample) else Nil
    val heapMb = JvmFacts.retainedHeapMb()
    java.lang.ref.Reference.reachabilityFence(Seq(data, workload, reorgInto, lastCandidates))
    val jvm = JvmFacts.snapshot().minus(jvm0)
    log("checked and measured")
    tables.foreach(PhysicalReorg.deleteDir)

    val endToEnd = Seq(
      ("setup_s", setupS, "s"),
      ("cell_s", Quantiles.median(cellSeconds.toSeq), "s"),
      ("candidates_per_s", candidatesBuilt / candidateSeconds, "1/s"),
      ("oreo_qps", oreoQueries / oreoSeconds, "1/s"),
      ("oreo_total_cost", oreoTotal, "cost"),
      ("retained_heap_mb", heapMb, "MB"),
      ("reorg_s", Quantiles.median(reorgSeconds.toSeq), "s"),
      ("bid_query_ms_p50", Quantiles.percentile(queryMs.toSeq, 50), "ms"),
      ("bid_query_ms_p80", Quantiles.percentile(queryMs.toSeq, 80), "ms"),
      ("stored_bytes_per_row", Quantiles.median(tableBytes.toSeq) / data.numRows, "B/row"),
    )
    val metrics =
      if (!trace.enabled) endToEnd
      else {
        val perCell = (name: String) => trace.totalSeconds(name) / cells
        val genMs = trace.durations("layout.generate", cellSpans._1, cellSpans._2).map(_ / 1e6).toSeq
        val observeUs = trace.durations("strategy.oreo.observe").map(_ / 1e3).toSeq
        val candidateUs = trace.durations("strategy.oreo.on_candidate").map(_ / 1e3).toSeq
        val simulators = Seq("static", "greedy", "regret", "oreo")
        Seq(
          ("data.gen_collect_s", Quantiles.median(reps.map(_._3)), "s"),
          ("data.rows", data.numRows.toDouble, "rows"),
          ("workload.gen_s", Quantiles.median(reps.map(_._4)), "s"),
          ("workload.queries", workload.size.toDouble, "count"),
          ("layout.generate_s", genMs.sum / 1e3 / cells, "s"),
          ("layout.generate_ms_p50", Quantiles.percentile(genMs, 50), "ms"),
          ("layout.generate_ms_p90", Quantiles.percentile(genMs, 90), "ms"),
          ("layout.built", genMs.size.toDouble / cells, "count"),
        ) ++ traced ++ Seq(
          ("metadata.from_dataframe_s", Quantiles.median(refreshSeconds.toSeq), "s"),
          ("strategy.oreo.observe_s", perCell("strategy.oreo.observe"), "s"),
          ("strategy.oreo.observe_us_p50", Quantiles.percentile(observeUs, 50), "us"),
          ("strategy.oreo.observe_us_p99", Quantiles.percentile(observeUs, 99), "us"),
          ("strategy.oreo.on_candidate_s", perCell("strategy.oreo.on_candidate"), "s"),
          ("strategy.oreo.on_candidate_us_p50", Quantiles.percentile(candidateUs, 50), "us"),
          ("strategy.oreo.on_candidate_us_p90", Quantiles.percentile(candidateUs, 90), "us"),
          ("strategy.regret.observe_s", perCell("strategy.regret.observe"), "s"),
          ("strategy.regret.on_candidate_s", perCell("strategy.regret.on_candidate"), "s"),
          ("strategy.greedy.on_candidate_s", perCell("strategy.greedy.on_candidate"), "s"),
        ) ++ counts.toSeq.map { case (k, v) => (k, v, "count") } ++
          simulators.map(s => (s"simulator.$s.run_s", perCell(s"simulator.$s.run"), "s")) ++ Seq(
          ("simulator.self_s", trace.selfSecondsOf("simulator.") / cells, "s"),
          ("spark.write_s", writeS, "s"),
          ("spark.reorg_rewrite_s", Quantiles.median(rewriteSeconds.toSeq), "s"),
          ("spark.query_ms_p50", Quantiles.percentile(queryMs.toSeq, 50), "ms"),
          ("spark.partitions_read_per_query", partitionsRead.sum / partitionsRead.size, "count"),
          ("spark.rows_read_per_query", rowsRead.sum / rowsRead.size, "rows"),
          ("spark.table_bytes", Quantiles.median(tableBytes.toSeq), "B"),
          ("spark.table_files", Quantiles.median(tableFiles.toSeq), "count"),
          ("trace.cell_s", Quantiles.median(cellSeconds.toSeq), "s"),
          ("trace.cells", cells.toDouble, "count"),
          ("jvm.gc_s", jvm.gcSeconds, "s"),
          ("jvm.jit_s", jvm.jitSeconds, "s"),
          ("host.steal_s", jvm.stealSeconds, "s"),
        )
      }
    if (trace.enabled) {
      trace.write(traceFile, metrics.map(m => m._1 -> m._2).toMap)
      log(s"wrote ${trace.size} spans to $traceFile")
    }
    Console.out.println("{\"run\": " + Json.obj(Seq(
      "workload" -> Json.str(spec.name), "seed" -> Json.num(seed.toDouble),
      "cells" -> Json.num(cells), "gc_s" -> Json.num(jvm.gcSeconds),
      "jit_s" -> Json.num(jvm.jitSeconds), "steal_s" -> Json.num(jvm.stealSeconds),
    ) ++ JvmFacts.machine) + "}")
    (attempted, failed, metrics)
  }

  /** An untimed cell over the first half of the stream, so that the JIT
    * has compiled the hot paths before the measured cells. It goes through
    * the same wrapper classes as the cells, with tracing off, so that the
    * cells meet the type profiles the JIT compiled for. It also checks that
    * the cells' own OREO wiring ([[oreoStrategy]]) gives the same
    * seed-averaged result as the experiment harness's `Lab.oreoAvg`.
    */
  private def warmUp(data: DataMatrix, workload: repro.workload.Workload,
                     default: LayoutState): Option[String] = {
    val prefix = workload.copy(queries = workload.queries.take(workload.size / 2))
    val off = new Trace(false)
    val warmGen = new TracedGen(QdTreeGen, off)
    def simulate(initial: LayoutState, cs: Seq[Candidate], s: Strategy): SimResult =
      Simulator.run(prefix, initial, cs, new Recorded(s, "warm-up", off), Alpha)
    val cands = CandidateStream.compute(prefix, data, warmGen, spec.source, GenConfig(k = K))
    val static = Lab.staticState(data, prefix, warmGen, K)
    val harness = Lab.oreoAvg(prefix, default, cands, Alpha, 1.0, spec.epsilon, 0, oreoSeeds)
    simulate(static, Nil, new StaticStrategy(static))
    simulate(default, cands, new GreedyStrategy(default))
    if (spec.regret) simulate(default, cands, new RegretStrategy(default, Alpha))
    val own = Lab.avg(oreoSeeds.map(s => simulate(default, cands, oreoStrategy(default, s))))
    if (own == harness) None
    else Some(s"OREO wired as in the cells gives ${own.totalCost}, Lab.oreoAvg ${harness.totalCost}")
  }

  /** OREO for one seed, wired as `Lab.runOreo` wires it. */
  private def oreoStrategy(default: LayoutState, seed: Long): OreoStrategy = {
    val manager = new LayoutManager(spec.epsilon, rng = new Random(seed * 31 + 7))
    new OreoStrategy(default, Alpha, 1.0, manager, new Random(seed), MaxStates)
  }

  /** One simulated experiment cell, timed, then checked; returns its
    * candidates.
    */
  private def cell(index: Int, data: DataMatrix, workload: repro.workload.Workload,
                   default: LayoutState, truth: Checks.Truth): Seq[Candidate] = {
    val t0 = now
    val cands = trace.span("candidates.compute")(
      CandidateStream.compute(workload, data, gen, spec.source, GenConfig(k = K)))
    val candidateS = since(t0)
    candidateSeconds += candidateS
    candidatesBuilt += cands.size
    val runSeconds = mutable.ArrayBuffer.empty[String]

    def simulate(tag: String, initial: LayoutState, cs: Seq[Candidate], s: Strategy,
                 afterCandidate: () => Unit = () => ()): (SimResult, Recorded) = {
      val rec = new Recorded(s, tag, trace, afterCandidate)
      val t1 = now
      val res = trace.span(s"simulator.$tag.run")(Simulator.run(workload, initial, cs, rec, Alpha))
      runSeconds += f"$tag ${since(t1)}%.2f"
      (res, rec)
    }

    val static = Lab.staticState(data, workload, gen, K)
    val baselines = Seq(
      (static, simulate("static", static, Nil, new StaticStrategy(static))),
      (default, simulate("greedy", default, cands, new GreedyStrategy(default)))) ++
      (if (spec.regret)
        Seq((default, simulate("regret", default, cands, new RegretStrategy(default, Alpha))))
      else Nil)
    var capExceeded = Option.empty[String]
    val oreo = oreoSeeds.map { s =>
      val strat = oreoStrategy(default, s)
      val t1 = now
      val (res, rec) = simulate("oreo", default, cands, strat, () =>
        if (strat.stateSpaceSize > MaxStates && capExceeded.isEmpty)
          capExceeded = Some(s"OREO seed $s holds ${strat.stateSpaceSize} > $MaxStates states"))
      oreoSeconds += since(t1)
      oreoQueries += workload.size
      (res, rec, strat)
    }
    cellSeconds += since(t0)
    log(f"cell ${index + 1} in ${since(t0)}%.2f s: candidates $candidateS%.2f, " +
      runSeconds.mkString(", "))

    // checks, untimed: soundness on the first cell, and every later cell
    // repeats the first one's candidates and costs exactly
    val avg = Lab.avg(oreo.map(_._1))
    val totals = baselines.map(_._2._1.totalCost) :+ avg.totalCost
    if (index == 0) {
      firstTotals = totals
      firstCandidates = cands
      oreoTotal = avg.totalCost
      firstStatic = static
      op(Checks.soundness(static, truth))
      cands.foreach(c => op(Checks.soundness(c.state, truth)))
      recordCounts(baselines.map(_._2), oreo)
    } else {
      op(Checks.sameMetadata(static.id, static.metadata, firstStatic.metadata))
      cands.zipAll(firstCandidates, null, null).foreach { case (c, f) =>
        op(if (c != null && f != null && c.atQuery == f.atQuery && c.state.id == f.state.id)
          Checks.sameMetadata(c.state.id, c.state.metadata, f.state.metadata)
        else Some(s"cell ${index + 1}: candidates differ from the first cell's"))
      }
    }
    val repeat = if (totals == firstTotals) None
      else Some(s"cell ${index + 1}: totals $totals differ from the first cell's $firstTotals")
    for ((initial, (res, rec)) <- baselines)
      op(Checks.accounting(res, rec, workload, initial, Alpha), repeat)
    for ((res, rec, strat) <- oreo)
      op(Checks.accounting(res, rec, workload, default, Alpha), capExceeded,
        if (strat.maxStateSpaceSize <= MaxStates) None
        else Some(s"OREO max state space ${strat.maxStateSpaceSize} > $MaxStates"), repeat)
    cands
  }

  private def recordCounts(baselines: Seq[(SimResult, Recorded)],
                           oreo: Seq[(SimResult, Recorded, OreoStrategy)]): Unit = {
    val strats = oreo.map(_._3)
    counts("strategy.oreo.switches") = oreo.map(_._1.switches).sum
    counts("strategy.oreo.phases") = strats.map(_.phases).sum
    counts("strategy.oreo.offered") = strats.map(_.offeredCount).sum
    counts("strategy.oreo.admitted") = strats.map(_.admittedCount).sum
    // every admission adds a state; the initial state plus admissions minus
    // the final size is the number evicted
    counts("strategy.oreo.evicted") = strats.map(s => 1 + s.admittedCount - s.stateSpaceSize).sum
    counts("strategy.oreo.max_states") = strats.map(_.maxStateSpaceSize).max
    def switchesOf(name: String) = baselines.find(_._1.name == name).map(_._1.switches).getOrElse(0)
    counts("strategy.regret.switches") = switchesOf("Regret")
    counts("strategy.greedy.switches") = switchesOf("Greedy")
  }

  /** Rewrite the table under `state`'s layout, refresh its metadata from the
    * written files, then run the query batch against it.
    */
  private def reorganize(from: String, to: String, state: LayoutState, data: DataMatrix,
                         queries: IndexedSeq[Query], truth: Checks.Truth): Unit = {
    val rewriteS = PhysicalReorg.timed(trace.span("spark.reorg_rewrite")(
      PhysicalReorg.timeReorg(spark, from, schema, state.layout, to)))
    var meta: LayoutMetadata = null
    val refreshS = PhysicalReorg.timed {
      meta = trace.span("metadata.from_dataframe")(MetadataBuilder.fromDataFrame(
        BidTable.read(spark, to).drop(BidTable.BidCol), schema, state.layout))
    }
    rewriteSeconds += rewriteS
    refreshSeconds += refreshS
    reorgSeconds += rewriteS + refreshS
    val walk = Files.walk(Paths.get(to))
    val files = try walk.iterator.asScala
      .filter(p => Files.isRegularFile(p) && p.getFileName.toString.endsWith(".parquet")).toList
    finally walk.close()
    tableBytes += files.map(Files.size(_).toDouble).sum
    tableFiles += files.size.toDouble
    op(Checks.expect(s"${state.id} table rows", BidTable.read(spark, to).count(), data.numRows),
      Checks.sameMetadata(state.id, meta, state.metadata))

    val table = BidTable.read(spark, to)
    for ((q, j) <- queries.zipWithIndex) {
      val t0 = now
      val n = trace.span("spark.query")(BidTable.rewrite(table, q, meta).count())
      queryMs += since(t0) * 1e3
      val needed = trace.span("cost.partitions_needed")(meta.partitionsNeeded(q))
      partitionsRead += needed.size
      rowsRead += meta.partitions.filter(p => needed.contains(p.bid)).map(_.rowCount).sum
      op(Checks.expect(s"${state.id} query ${q.id} count", n, truth.counts(j)))
    }
  }

  /** Traced run only: direct timing of metadata building and cost
    * evaluation over the last cell's candidates.
    */
  private def probes(cands: Seq[Candidate], data: DataMatrix,
                     sample: IndexedSeq[Query]): Seq[(String, Double, String)] = {
    val fromMatrixMs = cands.map { c =>
      val t0 = now
      trace.span("metadata.from_matrix")(MetadataBuilder.fromMatrix(data, c.state.layout))
      since(t0) * 1e3
    }
    var sink = 0.0
    def evalAll(): Unit = for (c <- cands; q <- sample) sink += c.state.metadata.fractionAccessed(q)
    evalAll() // once untimed, so the timed pass runs compiled code
    val t0 = now
    trace.span("cost.eval")(evalAll())
    val evalNs = (now - t0).toDouble
    val evals = cands.size.toDouble * sample.size
    val neededUs = trace.durations("cost.partitions_needed").map(_ / 1e3).toSeq
    require(!sink.isNaN)
    Seq(
      ("metadata.from_matrix_s", fromMatrixMs.sum / 1e3, "s"),
      ("metadata.from_matrix_ms_p50", Quantiles.percentile(fromMatrixMs, 50), "ms"),
      ("metadata.from_matrix_calls", fromMatrixMs.size.toDouble, "count"),
      ("cost.eval_ns", evalNs / evals, "ns"),
      ("cost.evals", evals, "count"),
      ("cost.partitions_needed_us", Quantiles.median(neededUs), "us"),
    )
  }
}
