package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{Table2, Table3, Table4}

/** Entry point reproducing the paper's Tables 2–4 (console output).
  *
  * Usage: sbt "runMain repro.jobs.Tables 2|3|4|all"
  * Scale via REPRO_BENCH_SCALE (default 1.0).
  */
object Tables {

  private val tables: Seq[(String, SparkSession => Seq[String])] =
    Seq("2" -> Table2.run, "3" -> Table3.run, "4" -> Table4.run)

  def main(args: Array[String]): Unit = {
    val chosen = args match {
      case Array("all") => tables
      case Array(t)     => tables.filter(_._1 == t)
      case _            => Nil
    }
    require(chosen.nonEmpty, "usage: Tables 2|3|4|all")
    // The session config the test suites use (repro.SparkSpec): broadcast
    // joins off, so joins take the shuffle path at these small scales.
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("graphsurge-tables")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try chosen.foreach { case (_, run) => run(spark).foreach(println) }
    finally spark.stop()
  }
}
