package repro.vcbench

import scala.collection.mutable.ArrayBuffer
import scala.util.Try
import scala.util.control.NonFatal
import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession

/** The benchmark JVM. Runs one workload and prints one `@vcbench`
  * JSON record per line on stdout: `env`, `setup`, one `pass` per pass
  * and a closing `end`. `vcbench/run.py` derives the metrics from them.
  *
  * A run sets the inputs up `SetupRepeats` times, then repeats passes
  * until `--seconds` have elapsed. Pass 0 warms the JIT and is left out of
  * the medians; at least one more pass follows (two with `--trace 1`,
  * where every second pass runs with a [[SparkTrace]] listener and
  * per-layer probes). Every pass checks every result against the reference
  * implementations. After each pass the blocks it cached are released, so
  * passes do not inherit state.
  *
  * Usage: `Main --workload W --seed N --seconds S --trace 0|1 --work-dir D`
  */
object Main {

  val SetupRepeats = 5

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val spark = session(opt("work-dir"))
    val code =
      try run(spark, opt("workload"), opt("seed").toLong, opt("seconds").toDouble, opt("trace") == "1")
      finally spark.stop()
    sys.exit(code)
  }

  /** The benchmark's own Spark configuration (recorded in `env`). */
  def conf(workDir: String): Seq[(String, String)] = Seq(
    "spark.master" -> "local[4]",
    "spark.app.name" -> "vcbench",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
    "spark.driver.bindAddress" -> "127.0.0.1",
    "spark.local.dir" -> s"$workDir/spark-local",
    "spark.sql.warehouse.dir" -> s"$workDir/warehouse",
    "spark.sql.shuffle.partitions" -> "4",
    "spark.sql.adaptive.enabled" -> "false",
    "spark.sql.autoBroadcastJoinThreshold" -> "10485760",
    // Deep call sites let SparkTrace attribute jobs to library layers.
    "spark.callstack.depth" -> "200",
  )

  private def session(workDir: String): SparkSession =
    conf(workDir).foldLeft(SparkSession.builder()) { case (b, (k, v)) => b.config(k, v) }
      .getOrCreate()

  private def emit(kind: String, fields: Map[String, Any]): Unit = {
    println("@vcbench " + Json(fields + ("kind" -> kind)))
    Console.out.flush()
  }

  private def run(spark: SparkSession, name: String, seed: Long, seconds: Double,
                  traced: Boolean): Int = {
    val sc = spark.sparkContext
    emit("env", Map(
      "spark_version" -> spark.version,
      "java_version" -> System.getProperty("java.version"),
      "jvm" -> System.getProperty("java.vm.name"),
      "scala_version" -> scala.util.Properties.versionNumberString,
      "jvm_cores" -> Runtime.getRuntime.availableProcessors,
      "jvm_max_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "default_parallelism" -> sc.defaultParallelism,
      "conf" -> (conf("").map(_._1) :+ "spark.sql.codegen.wholeStage")
        .map(k => k -> Try(spark.conf.get(k)).getOrElse(sc.getConf.get(k, "unset"))).toMap))

    val w = Workload(name, spark, seed)
    val setupS = (1 to SetupRepeats).map { _ =>
      val t0 = System.nanoTime(); w.setup(); (System.nanoTime() - t0) / 1e9
    }
    emit("setup", Map("seconds" -> setupS))
    val keep = sc.getPersistentRDDs.keySet.toSet

    def onePass(index: Int, trace: Boolean): Pass = {
      val listener = if (trace) Some(new SparkTrace) else None
      listener.foreach(sc.addSparkListener)
      val p =
        try w.pass()
        finally listener.foreach { l => l.drain(sc); sc.removeSparkListener(l) }
      val retained = retainedBytes(sc)
      val layers = if (trace) w.layers(p.collection) else Map.empty[String, Double]
      val c = p.collection
      emit("pass", Map(
        "index" -> index, "warmup" -> (index == 0), "traced" -> trace,
        "cct_s" -> p.cctS,
        "cct_ms" -> Map("ebm" -> c.cct.ebmMs, "order" -> c.cct.orderMs, "diff" -> c.cct.diffMs),
        "cop_diffs" -> c.totalDiffs, "views" -> c.numViews,
        "calls" -> p.calls.map { call =>
          Map("program" -> call.program, "mode" -> call.mode, "wall_s" -> call.wallS,
              "views" -> call.stats.map(s => Map(
                "t" -> s.t, "diff" -> s.ranDiff, "ms" -> s.millis, "iters" -> s.iterations,
                "work_rows" -> s.workRows, "edges" -> s.viewEdges, "delta" -> s.deltaEdges)))
        },
        "retained_bytes" -> retained,
        "checked" -> p.checked, "failures" -> p.failures,
        "layers" -> layers,
        "spark" -> listener.map(_.record)))
      release(sc, keep)
      p
    }

    var attempted = 0
    val failures = ArrayBuffer.empty[String]
    def checked(p: => Pass): Unit =
      try { val r = p; attempted += r.checked; failures ++= r.failures }
      catch {
        case NonFatal(e) =>
          attempted += 1
          failures += s"pass threw: $e"
          e.printStackTrace()
      }
    val minPasses = if (traced) 3 else 2
    val start = System.nanoTime()
    var i = 0
    while (failures.isEmpty &&
           (i < minPasses || (System.nanoTime() - start) / 1e9 < seconds)) {
      checked(onePass(i, trace = traced && i > 0 && i % 2 == 0))
      i += 1
    }
    emit("end", Map("attempted" -> attempted, "failed" -> failures.size, "failures" -> failures.toSeq))
    if (failures.isEmpty) 0 else 1
  }

  /** Block-manager bytes still held once unreachable state is collected. */
  private def retainedBytes(sc: SparkContext): Long = {
    def held = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum
    System.gc()
    var prev = -1L
    var cur = held
    var polls = 0
    while (polls < 3 || (cur != prev && polls < 30)) {
      Thread.sleep(100)
      prev = cur
      cur = held
      polls += 1
    }
    cur
  }

  /** Unpersist every RDD cached since set-up. */
  private def release(sc: SparkContext, keep: Set[Int]): Unit =
    sc.getPersistentRDDs.foreach { case (id, rdd) => if (!keep(id)) rdd.unpersist(blocking = true) }
}
