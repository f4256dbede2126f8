package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._
import scala.util.Try

/** JVM and host counters: GC time, JIT time and host steal time. */
final case class JvmFacts(gcSeconds: Double, jitSeconds: Double, stealSeconds: Double) {
  def minus(o: JvmFacts): JvmFacts =
    JvmFacts(gcSeconds - o.gcSeconds, jitSeconds - o.jitSeconds, stealSeconds - o.stealSeconds)
}

object JvmFacts {
  /** Clock ticks per second of `/proc/stat` (USER_HZ, 100 on Linux). */
  private val UserHz = 100.0

  def snapshot(): JvmFacts = JvmFacts(
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3,
    Try(ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1e3).getOrElse(0.0),
    stealSeconds())

  /** Steal time of all CPUs since boot, from the `cpu` line of /proc/stat;
    * 0 where the file cannot be read.
    */
  private def stealSeconds(): Double = Try {
    val cpu = Files.readAllLines(Paths.get("/proc/stat")).asScala.find(_.startsWith("cpu ")).get
    cpu.trim.split("\\s+")(8).toDouble / UserHz
  }.getOrElse(0.0)

  /** Live heap after a full collection, in MB. */
  def retainedHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    System.gc()
    System.gc()
    mem.getHeapMemoryUsage.getUsed / 1e6
  }

  def machine: Seq[(String, String)] = Seq(
    "nproc" -> Json.num(Runtime.getRuntime.availableProcessors),
    "heap_max_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1e6),
    "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
  )
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --work-dir <dir> --trace-file <path>`. Prints one JSON result object as
  * the last line of standard output.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val spec = Spec.named(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = new Trace(opt("trace") == "1")
    val workDir = Paths.get(opt("work-dir")).toAbsolutePath.toString
    // two task threads: Spark work here is small, and fewer threads are steadier
    val cores = math.min(2, Runtime.getRuntime.availableProcessors)
    Files.createDirectories(Paths.get(workDir))

    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // fixed parallelism keeps the generated data identical on any core count
      .config("spark.default.parallelism", "4")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sparkUpS = (System.currentTimeMillis() - jvmStart) / 1e3

    val ok = try {
      val (attempted, failed, metrics) =
        new Bench(spec, seed, seconds, trace, spark, workDir, opt("trace-file")).run(jvmStart, sparkUpS)
      val metricJson = Json.obj(metrics.map { case (name, value, unit) =>
        name -> Json.obj(Seq("value" -> Json.num(value), "unit" -> Json.str(unit)))
      })
      Console.out.println(Json.obj(Seq(
        "correct" -> (failed == 0).toString,
        "attempted" -> Json.num(attempted.toDouble),
        "failed" -> Json.num(failed.toDouble),
        "metrics" -> metricJson)))
      true
    } catch {
      case e: Throwable =>
        e.printStackTrace()
        false
    } finally spark.stop()
    Console.out.flush()
    System.exit(if (ok) 0 else 1)
  }
}
