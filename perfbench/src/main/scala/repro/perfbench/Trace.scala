package repro.perfbench

import java.io.{BufferedWriter, FileWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is (name, start, end, parent). Spans nest on one thread, so a
  * stack gives each span its parent. Storage is a set of growable primitive
  * arrays so that hundreds of thousands of per-query spans stay cheap. When
  * tracing is off, [[span]] only evaluates its body.
  */
final class Trace(val enabled: Boolean) {
  private val nameIds = mutable.HashMap.empty[String, Int]
  private val names = mutable.ArrayBuffer.empty[String]
  private var starts = new Array[Long](1 << 12)
  private var ends = new Array[Long](1 << 12)
  private var nameOf = new Array[Int](1 << 12)
  private var parentOf = new Array[Int](1 << 12)
  private var n = 0
  private val stack = mutable.Stack.empty[Int]

  def size: Int = n

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = open(name)
      try body finally close(id)
    }

  private def open(name: String): Int = {
    if (n == starts.length) grow()
    val id = n
    nameOf(id) = nameIds.getOrElseUpdate(name, { names += name; names.size - 1 })
    parentOf(id) = if (stack.isEmpty) -1 else stack.top
    stack.push(id)
    n += 1
    starts(id) = System.nanoTime()
    id
  }

  private def close(id: Int): Unit = {
    ends(id) = System.nanoTime()
    stack.pop()
  }

  private def grow(): Unit = {
    val m = starts.length * 2
    starts = java.util.Arrays.copyOf(starts, m)
    ends = java.util.Arrays.copyOf(ends, m)
    nameOf = java.util.Arrays.copyOf(nameOf, m)
    parentOf = java.util.Arrays.copyOf(parentOf, m)
  }

  /** Durations in nanoseconds of every span called `name`, among the spans
    * opened in `[from, until)` (span indices, in opening order).
    */
  def durations(name: String, from: Int = 0, until: Int = Int.MaxValue): Array[Long] =
    nameIds.get(name) match {
      case None => Array.empty
      case Some(k) =>
        val out = mutable.ArrayBuilder.make[Long]
        var i = from
        while (i < math.min(n, until)) { if (nameOf(i) == k) out += ends(i) - starts(i); i += 1 }
        out.result()
    }

  def totalSeconds(name: String): Double = durations(name).sum / 1e9

  /** Self time per span name: each span's duration minus the time its
    * direct children cover (children of one span never overlap).
    */
  def selfSeconds: Map[String, Double] = {
    val self = new Array[Long](n)
    var i = 0
    while (i < n) {
      val d = ends(i) - starts(i)
      self(i) += d
      if (parentOf(i) >= 0) self(parentOf(i)) -= d
      i += 1
    }
    val byName = new Array[Long](names.size)
    i = 0
    while (i < n) { byName(nameOf(i)) += self(i); i += 1 }
    names.indices.map(k => names(k) -> byName(k) / 1e9).toMap
  }

  /** Self seconds summed over every span whose name starts with `prefix`. */
  def selfSecondsOf(prefix: String): Double =
    selfSeconds.iterator.collect { case (k, v) if k.startsWith(prefix) => v }.sum

  /** Write every span as `[name index, start ns, end ns, parent index]`. */
  def write(path: String, summary: Map[String, Double]): Unit = {
    val w = new BufferedWriter(new FileWriter(path))
    try {
      w.write("{\"names\":[")
      w.write(names.map(Json.str).mkString(","))
      w.write("],\n\"self_s\":")
      w.write(Json.obj(selfSeconds.map { case (k, v) => k -> Json.num(v) }))
      w.write(",\n\"summary\":")
      w.write(Json.obj(summary.map { case (k, v) => k -> Json.num(v) }))
      w.write(",\n\"spans\":[\n")
      var i = 0
      while (i < n) {
        if (i > 0) w.write(",\n")
        w.write(s"[${nameOf(i)},${starts(i)},${ends(i)},${parentOf(i)}]")
        i += 1
      }
      w.write("]}\n")
    } finally w.close()
  }
}

/** Minimal JSON writing for the benchmark's output line and trace file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c    => c.toString
    } + "\""

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else java.lang.Double.toString(x)

  def obj(fields: Iterable[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** Order statistics over a sample. */
object Quantiles {
  /** Nearest-rank percentile, `p` in [0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(p / 100 * s.size).toInt - 1)))
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}
