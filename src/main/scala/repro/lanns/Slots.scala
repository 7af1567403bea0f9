package repro.lanns

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import scala.reflect.ClassTag

/** Executor slots shared by the indexer and the querier (§5.2, §5.3).
  *
  * Group (shard, segment) belongs to slot `(shard·numSegments + segment)
  * mod E`, and slot i is exactly Spark partition i. Each of the E tasks then
  * works through its own groups one after another, the schedule an
  * E-executor cluster produces, and no two slots ever share a task.
  */
object Slots {

  /** Slot of group (`shard`, `segment`) among `numSlots`. */
  def of(shard: Int, segment: Int, numSegments: Int, numSlots: Int): Int =
    (shard * numSegments + segment) % numSlots

  /** `rows` in `numSlots` partitions, each row in its group's slot. */
  def pack[T: ClassTag](rows: Dataset[T], numSegments: Int, numSlots: Int)
                       (group: T => (Int, Int)): RDD[T] = {
    require(numSlots >= 1, s"numSlots must be >= 1, got $numSlots")
    rows.rdd
      .keyBy { r => val (s, g) = group(r); of(s, g, numSegments, numSlots) }
      .partitionBy(new SlotPartitioner(numSlots))
      .values
  }

  /** Sends key `slot` to partition `slot`. */
  private final class SlotPartitioner(val numPartitions: Int) extends Partitioner {
    def getPartition(key: Any): Int = key.asInstanceOf[Int]
  }
}
