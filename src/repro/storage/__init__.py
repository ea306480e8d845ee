"""Segment storage (paper §III-C): the Segment row format, the `.mdb`
files of zlib-compressed Arrow columns with their JSON footers, and the
``modelardb`` DataSourceV2."""
